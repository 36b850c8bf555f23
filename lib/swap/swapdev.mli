(** The swap device: slot allocation plus actual paging I/O.

    Each written slot retains its page, so a later pagein restores the
    exact bytes — pageout/pagein is validated for data correctness, not
    just accounting.  A page is retained as a zero tag when every byte
    is zero (most pageouts: anonymous zero-fill memory the program never
    wrote) and as one immutable copy otherwise, the way Linux zram keeps
    same-filled pages.  The representation is host-side only: the disk
    is charged the same seek and per-page transfer for a tagged page as
    for a copied one, so every simulated time is unchanged.

    All transfers are fallible (see {!Sim.Fault_plan}); a failed write
    leaves the pages dirty and the stored bytes untouched, so callers can
    retry or reassign without losing data.  The recovery policy lives
    above the device: {!Swaptier.write_resilient} for writes, the kernels'
    transient retry for reads. *)

type contents =
  | Zero  (** an all-zero page, kept as a tag *)
  | Data of bytes  (** one private copy of a page; never mutated *)
(** What one slot stores. *)

val capture : bytes -> contents
(** [capture frame] is [Zero] if every byte of [frame] is zero (a
    word-wise scan that allocates nothing), else [Data] of a copy. *)

type t
(** The slot map plus a store indexed by slot: a read or write finds its
    slot's contents by index, with no hashing. *)

val create :
  nslots:int ->
  page_size:int ->
  clock:Sim.Simclock.t ->
  costs:Sim.Cost_model.t ->
  stats:Sim.Stats.t ->
  unit ->
  t
(** Device-level transfers are untraced: the tier layer ({!Swaptier})
    spans every read and write in the global slot namespace. *)

val slots_in_use : t -> int

val slots_usable : t -> int
(** Capacity net of blacklisted slots. *)

val is_bad_slot : t -> slot:int -> bool

val is_allocated_slot : t -> slot:int -> bool
(** Whether [slot] is currently charged to an owner (invariant auditing). *)

val alloc_slots : t -> n:int -> int option
(** Reserve [n] contiguous slots (no I/O yet). *)

val free_slots : t -> slot:int -> n:int -> unit
(** Release slots and discard their stored contents.  Blacklisted slots
    are retired rather than returned to circulation. *)

val mark_bad : t -> slot:int -> bool
(** Blacklist [slot] as bad media and discard whatever it stored.
    Idempotent; counts into [Stats.bad_slots].  [true] iff this call
    marked the slot (it was not bad already). *)

val write_cluster :
  t ->
  slot:int ->
  pages:Physmem.Page.t array ->
  n:int ->
  (unit, Sim.Fault_plan.error) result
(** Write [pages.(0 .. n-1)] to consecutive slots starting at [slot] as a
    single I/O operation (this is UVM's clustered pageout: one seek, n
    transfers).  Marks the pages clean on success; on [Error] the pages
    stay dirty and no slot contents change.  Allocates nothing but the
    copy of a page that is not all zeros. *)

val read_slot :
  t -> slot:int -> dst:Physmem.Page.t -> (unit, Sim.Fault_plan.error) result
(** Page in one slot (one I/O operation).
    @raise Invalid_argument if the slot holds no data. *)

val read_cluster :
  t -> slot:int -> dsts:Physmem.Page.t list -> (unit, Sim.Fault_plan.error) result
(** Page in consecutive slots in one I/O operation. *)

val has_data : t -> slot:int -> bool
(** Whether a successful write ever stored bytes in [slot]. *)

val restore : t -> contents -> dst:Physmem.Page.t -> unit
(** Overwrite [dst]'s frame with [c] and mark it clean.  Charges no I/O:
    the read that produced [c] did. *)

val read_raw : t -> slot:int -> (contents, Sim.Fault_plan.error) result
(** Read one slot's stored contents (one charged I/O operation) without
    touching any page or the pagein counters — the tier layer's
    swapcache-hit and drain-migration primitive.  The result is the
    stored value itself, shared with the slot, not a copy.
    @raise Invalid_argument if the slot holds no data. *)

val write_raw : t -> slot:int -> contents -> (unit, Sim.Fault_plan.error) result
(** Store contents in an allocated slot (one charged I/O operation)
    without touching any page or the pageout counters.  The slot shares
    the value, not a copy of it; a failed write stores nothing.
    @raise Invalid_argument if the slot is not allocated. *)

val disk : t -> Sim.Disk.t
