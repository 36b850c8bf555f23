(** An in-memory filesystem with a vnode cache.

    Files have deterministic contents ({!file_byte}) so every read path —
    mmap faults, pager clustered reads, copy-on-write — can be checked for
    byte-exact correctness.  The store is sparse: a page's bytes are
    generated from the pattern when it is read, and only the pages written
    back with {!write_pages} are stored.

    Unreferenced vnodes are kept on an LRU list and recycled when the
    in-core vnode limit is reached; recycling runs the registered hooks
    (UVM uses this to terminate the embedded memory object — the single
    unified cache the paper advocates).  The BSD VM baseline instead holds
    extra vnode references from its own object cache, preventing optimal
    recycling, which is the behaviour Figure 2 measures. *)

module Vnode = Vnode

type t

val create :
  ?max_vnodes:int ->
  page_size:int ->
  clock:Sim.Simclock.t ->
  costs:Sim.Cost_model.t ->
  stats:Sim.Stats.t ->
  unit ->
  t
(** [max_vnodes] (default 2048) bounds the number of in-core vnodes, like
    the kernel's [numvnodes] limit. *)

val page_size : t -> int
val disk : t -> Sim.Disk.t

val file_byte : name:string -> off:int -> char
(** The canonical byte at offset [off] of file [name]; deterministic, so
    tests can verify any mapping's contents independently. *)

val create_file : t -> name:string -> size:int -> Vnode.t
(** Create a file whose contents are the canonical pattern and return its
    vnode with one reference.  Nothing is filled: the pattern is generated
    on read, so creation costs O(pages) words.
    @raise Invalid_argument if the file exists. *)

val read_file : t -> Vnode.t -> off:int -> len:int -> string
(** The file's current bytes [off, off + len): the stored bytes of pages
    written back, {!file_byte} elsewhere.  No disk I/O is charged.
    @raise Invalid_argument if the range is not within the file. *)

val lookup : t -> name:string -> Vnode.t
(** Name lookup ("open"): returns the vnode with an extra reference,
    bringing it in core (possibly recycling another vnode) if needed.
    @raise Not_found if no such file. *)

val vref : t -> Vnode.t -> unit
(** Take an additional reference on an in-core vnode. *)

val vrele : t -> Vnode.t -> unit
(** Drop a reference.  When the last reference goes away the vnode moves to
    the free LRU (it stays in core until recycled). *)

val register_recycle_hook : t -> (Vnode.t -> unit) -> unit
(** Called just before an unreferenced vnode's in-core state is discarded;
    the VM layer must tear down any memory object riding in [vm_private]. *)

val free_list_length : t -> int

val read_pages :
  t ->
  Vnode.t ->
  start_page:int ->
  dsts:Physmem.Page.t list ->
  (unit, Sim.Fault_plan.error) result
(** One clustered disk read filling [dsts] with file pages
    [start_page, start_page + n).  Pages past EOF are zero-filled.
    On [Error] no destination page is touched. *)

val write_pages :
  t ->
  Vnode.t ->
  start_page:int ->
  srcs:Physmem.Page.t list ->
  (unit, Sim.Fault_plan.error) result
(** One clustered disk write of file pages back to the store.  A page's
    bytes up to EOF are kept in the vnode's written-page store (allocated
    on its first write) and override the generated pattern from then on;
    bytes past EOF are dropped.  On [Error] the source pages stay dirty and
    the file is unchanged. *)

val npages_of : t -> Vnode.t -> int
(** File size in pages, rounded up. *)
