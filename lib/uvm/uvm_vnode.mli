(** The UVM vnode pager: the memory object is {e embedded} in the vnode.

    The paper's Figure 4 contrast: BSD VM needs a [vm_object], a
    [vm_pager], a [vn_pager] and a pager hash-table entry to map a file;
    UVM needs nothing beyond the structure already riding inside the
    vnode, and its object points directly at the pager operations.

    Cache behaviour (paper §4): the uvn holds a vnode reference only while
    the object is mapped.  When the last mapping goes away the pages
    {e stay} in the object and the vnode moves to the vnode system's own
    free LRU — a single level of caching.  When the vnode subsystem decides
    to recycle the vnode, the hook installed by {!install_recycle_hook}
    frees the pages. *)

type uvn = {
  obj : Uvm_object.t;
  vnode : Vfs.Vnode.t;
  mutable has_vref : bool;
}

type Vfs.Vnode.vm_private += Uvn of uvn

val attach : Uvm_sys.t -> Vfs.Vnode.t -> Uvm_object.t
(** Get the vnode's embedded memory object with a new reference, creating
    it on first mapping.  No hash lookup and no separate allocations. *)

val uvn_of_vnode : Vfs.Vnode.t -> uvn option

val install_recycle_hook : Uvm_sys.t -> unit
(** Register the object's termination with the vfs layer; called once at
    boot.  When the vnode is recycled (no mappings remain), its dirty
    pages are written back best-effort and its in-core VM state is
    dropped. *)
