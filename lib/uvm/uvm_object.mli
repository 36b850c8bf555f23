(** UVM memory objects ([uvm_object], paper §4).

    In UVM the object structure is a {e secondary} structure meant to be
    embedded inside whatever kernel abstraction supplies the data (a vnode,
    an anonymous-object record, a device).  It carries only the reference
    count, the set of resident pages, and a pointer to the pager
    operations; everything else belongs to the embedding subsystem and is
    reached through the pager functions. *)

(** State that the embedding subsystem keeps with the object: each pager
    that needs some adds a constructor (the aobj's swap-slot table). *)
type ext = ..

type ext += No_ext

type t = {
  id : int;
  mutable refs : int;
  pages : (int, Physmem.Page.t) Hashtbl.t;  (** page offset -> resident page *)
  mutable pgops : pager_ops;
  okey : Physmem.Lookup.okey;
      (** lockless-lookup identity: [adopt]/[remove_page]
          publish/revoke through it, the fault path probes it *)
  ext : ext;
  mutable lockh : Sim.Lockstat.lock option;
      (** lock-observatory handle, registered by {!lock_handle} *)
}

(** The pager API (paper §6).  Unlike BSD VM, [pgo_get] allocates pages
    itself, giving the pager full control over which page frames receive
    the data. *)
and pager_ops = {
  pgo_name : string;
  pgo_get : center:int -> (Physmem.Page.t, Vmiface.Vmtypes.fault_error) result;
      (** Make the page at offset [center] resident (reading a cluster from
          backing store if the pager chooses) and return it.  The fault
          routine finds the neighbours it maps in the object itself.
          [Error Pager_error] when backing store I/O fails beyond the
          retry budget, or when there is no page to supply; no
          half-filled pages are left behind. *)
  pgo_put : Physmem.Page.t list -> (unit, Vmiface.Vmtypes.fault_error) result;
      (** Write the given dirty pages of this object back to backing store,
          clustering as the pager sees fit.  On [Error] the unwritten pages
          stay dirty. *)
  pgo_cache_spill : Physmem.Page.t -> unit;
      (** The pagedaemon is about to reclaim this clean page: the pager may
          spill a copy into the swapcache so a re-fault is served from the
          fast swap tier instead of backing store.  The vnode pager does;
          pagers whose store is already swap (aobj) do nothing. *)
  pgo_reference : unit -> unit;  (** add a reference *)
  pgo_detach : unit -> unit;  (** drop a reference *)
}

type Physmem.Page.tag += Uobj_page of t

val make : ?ext:ext -> Uvm_sys.t -> (t -> pager_ops) -> t
(** [make sys mk_ops] builds an object whose pager closes over the object
    itself (refs starts at 1).  [ext] defaults to [No_ext]. *)

val lock_handle : Sim.Lockstat.t -> t -> Sim.Lockstat.lock
(** The object's lock in the registry (["object#<id>"]), registered on
    first use.  The fault path asks for it only while the registry is
    active. *)

val find : t -> pgno:int -> Physmem.Page.t
(** The resident page at [pgno], found without building an option (a
    fault probes every page of its fault-ahead window).
    @raise Not_found if there is none. *)

val mem_page : t -> pgno:int -> bool

val got_centre :
  t -> center:int -> (Physmem.Page.t, Vmiface.Vmtypes.fault_error) result
(** A pager's answer once it has done its work: the resident page at
    [center], or [Error Pager_error] if there is none. *)

val adopt : t -> Physmem.Page.t -> unit
(** Make a frame allocated to this object resident at the offset it
    already carries — the pager's install step. *)

val remove_page : t -> pgno:int -> unit
val resident_count : t -> int
val dirty_pages : t -> Physmem.Page.t list

val free_all_pages : Uvm_sys.t -> t -> unit
(** Unmap and free every resident page (object termination). *)
