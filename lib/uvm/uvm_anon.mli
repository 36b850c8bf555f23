(** Anons: one page of anonymous memory (paper §5.2).

    An anon tracks where its data currently lives — in a physical page, on
    a swap slot, or both (a clean page with a valid swap copy).  An anon
    with a single reference is writable in place; anons referenced by more
    than one amap are copy-on-write.  Reference counting is what frees
    UVM from BSD VM's object chains, collapse operation and swap leaks. *)

type t = {
  id : int;
  mutable refs : int;
  mutable page : Physmem.Page.t option;
  mutable swslot : int;  (** 0 = no swap location assigned *)
}

type Physmem.Page.tag += Anon_page of t

val alloc : Uvm_sys.t -> zero:bool -> t
(** A fresh anon (refs = 1) with a resident page; charges the structure
    allocation and, when [zero], the page-zeroing cost. *)

val alloc_empty : Uvm_sys.t -> t
(** A fresh anon with no page and no swap — used by page transfer/loanout
    import paths that install an existing page afterwards. *)

val ref_ : t -> unit
(** Add a reference (amap copy sharing this anon). *)

val unref : Uvm_sys.t -> t -> unit
(** Drop a reference; on the last one the page (if any, honouring loans)
    and the swap slot (if any) are released.  Because anons free eagerly on
    last-unref, anonymous memory can never leak — the invariant §5.3 says
    BSD VM lacks. *)

val set_swslot : Uvm_sys.t -> t -> int -> unit
(** Assign (or, with 0, clear) the swap location, releasing any previous
    slot — this is the dynamic reassignment that enables UVM's aggressive
    pageout clustering. *)

val ensure_resident :
  Uvm_sys.t -> t -> (Physmem.Page.t, Vmiface.Vmtypes.fault_error) result
(** Make the anon's data resident, paging it in from swap if needed, and
    return the page.  The page is put on the active queue.
    [Error Pager_error] when the swap read fails beyond the retry budget;
    the freshly-allocated frame is returned to the free list and the anon
    keeps its swap slot. *)

val is_resident : t -> bool

val writable_in_place : t -> bool
(** True when a write fault may write straight into the existing page:
    exactly one reference and no outstanding loans (paper §5.3's "middle
    page" optimisation). *)
