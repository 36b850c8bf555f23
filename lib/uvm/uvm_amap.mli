(** Amaps: anonymous memory maps (paper §5.2).

    An amap is an array of slots, each optionally holding a reference to an
    {!Uvm_anon.t}.  A map entry's anonymous layer is an [(amap, slot
    offset)] pair, so clipping an entry shares the amap at different
    offsets rather than copying it.

    Reference counting comes in two granularities, as in UVM proper:
    [refs] counts referencing map entries, and a lazily-established
    per-page reference array ([ppref]) tracks slot ranges once references
    stop covering the whole amap (entry clipping, partial unmaps).  The
    invariant: while [ppref] is unallocated, every reference covers every
    slot.

    This module is the amap {e implementation}; per the paper (§5.2,
    fourth difference from SunOS) the interface is kept separate from the
    array-based implementation so it could be swapped for a hybrid
    hash/array one. *)

type t = {
  id : int;
  mutable refs : int;  (** number of referencing map entries *)
  mutable nslots : int;
  mutable anons : Uvm_anon.t option array;
  mutable ppref : int array option;  (** per-slot reference counts *)
  mutable nused : int;  (** occupied slots *)
  mutable shared : bool;  (** referenced by a shared (non-COW) mapping *)
  mutable lockh : Sim.Lockstat.lock option;
      (** lock-observatory handle, registered by {!lock_handle} *)
}

val create : Uvm_sys.t -> nslots:int -> t
(** A fresh amap with one reference and empty slots. *)

val lookup : t -> slot:int -> Uvm_anon.t option

val lock_handle : Sim.Lockstat.t -> t -> Sim.Lockstat.lock
(** The amap's lock in the registry (["amap#<id>"]), registered on first
    use.  The fault path asks for it only while the registry is
    active. *)

val add : Uvm_sys.t -> t -> slot:int -> Uvm_anon.t -> unit
(** Install an anon in an empty slot (takes over the caller's reference).
    @raise Invalid_argument if the slot is occupied. *)

val replace : Uvm_sys.t -> t -> slot:int -> Uvm_anon.t -> unit
(** Swap in a new anon, dropping one reference on the displaced one
    (COW resolution). *)

val clear_slot : Uvm_sys.t -> t -> slot:int -> unit
(** Drop the slot's anon reference and empty the slot. *)

val copy : Uvm_sys.t -> t -> slotoff:int -> len:int -> t
(** The needs-copy-clearing copy: a new single-reference amap whose slots
    alias the source's anons (each anon gains a reference).  Future writes
    resolve at anon granularity. *)

val splitref : t -> unit
(** Called when a map entry referencing this amap is clipped in two: the
    single reference becomes two covering disjoint subranges, so [ppref]
    is established and [refs] incremented without per-slot changes. *)

val ref_range : t -> slotoff:int -> len:int -> unit
(** A new map entry takes a reference covering [slotoff, slotoff+len)
    (fork-share, fork-copy, map-entry passing). *)

val unref_range : Uvm_sys.t -> t -> slotoff:int -> len:int -> unit
(** A map entry drops its reference over the range.  Slots whose per-page
    count reaches zero release their anons immediately; when the last
    reference goes, everything is released.  There is no collapse
    operation and nothing can leak. *)

val extend : t -> by:int -> unit
(** Grow the amap by [by] empty slots at the end — used when an adjacent
    kernel-map entry is merged into this one ([amap_extend] in UVM).
    Only legal on unshared, single-reference amaps.
    @raise Invalid_argument otherwise. *)

val slots_used : t -> int

val check_invariants : t -> (unit, string) result
(** Structural invariants, used by the property tests. *)

val pp : Format.formatter -> t -> unit
