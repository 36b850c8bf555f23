(** The kernel invariant auditor's common machinery.

    Real BSD kernels back their VM systems with always-on consistency
    assertions (KASSERT under [DIAGNOSTIC]); this library is the simulator's
    equivalent, shared by both VM systems.  A violated invariant raises
    {!Audit_failure} carrying a structured {!failure}: which system, which
    subsystem, which invariant, and the offending identifiers — enough for
    the torture harness to write a crash artifact and for tests to assert
    the auditor fired for the right reason.

    The machine-level checks that do not depend on a particular VM system
    (physical page queues, swap-slot accounting, pv-list symmetry) live
    here; each VM system's [audit] adds its own walks (amap/anon reference
    counts, object chains, map/pmap agreement) on top. *)

type subsystem =
  | Physmem  (** page queues and frame states *)
  | Swap  (** swap-slot allocation vs. reachable owners *)
  | Map  (** map-entry structure *)
  | Amap  (** amap reference counts and slot coverage *)
  | Anon  (** anon reference counts and residency *)
  | Object  (** memory objects (UVM objects / BSD object chains) *)
  | Pmap  (** translations vs. resident pages *)
  | Loan  (** page loanout accounting *)
  | Ledger  (** per-page lifecycle provenance (DESIGN.md §10) *)
  | Lock  (** lock-order graph (DESIGN.md §15) *)
  | Smp  (** sharded queues, per-CPU caches, lockless lookup (§16) *)
  | Ipc  (** channel byte accounting (checked by the torture harness) *)

val subsystem_name : subsystem -> string

type failure = {
  system : string;  (** "UVM" or "BSD VM" *)
  subsys : subsystem;
  invariant : string;  (** short stable name, e.g. ["queue_exclusive"] *)
  detail : string;  (** offending identifiers, free-form *)
}

exception Audit_failure of failure

val string_of_failure : failure -> string

val fail : system:string -> subsys:subsystem -> invariant:string -> string -> 'a
(** Raise {!Audit_failure}. *)

val check_ledger : system:string -> Physmem.t -> unit
(** Provenance-ledger audit, run before {!check_physmem} so lifecycle
    corruption is attributed to the ledger class: fails on any recorded
    illegal transition, on a frame reachable from a paging queue whose
    ledger state disagrees with that queue (the double-insert bug), and
    on an off-queue frame whose ledger state is a queued one. *)

val check_physmem : system:string -> Physmem.t -> unit
(** Whole-RAM audit: every frame is on exactly the queue its [queue] field
    claims (no frame on two queues, none missing), queue counts add up to
    the total frame count, the free-page counter matches the free list,
    free frames carry no owner/dirt/wiring, and an unqueued frame is
    accounted for by wiring, business, or an owner-dropped loan. *)

val check_swap :
  system:string ->
  Swap.Swaptier.t ->
  claims:(string * int) list ->
  unit
(** Swap-leak oracle, across tiers.  [claims] lists every swap slot
    reachable from a live anon or memory object, with a description of
    the owner; the swapcache's entries are appended as owners in their
    own right.  Verifies that each claimed slot is really allocated, that
    no slot is claimed by two owners (an anon/object and the cache
    sharing a slot is [slot_shared]), that every allocated slot is
    claimed — an allocated but unclaimed slot is precisely a swap leak
    (paper §5.3) — and, for the tier failure model, that no cache entry
    sits on an unallocated slot or a dead device and that a fully-drained
    device never owns slots again. *)

val check_loans :
  system:string ->
  Physmem.t ->
  claims:(string * int) list ->
  unit
(** Loan-count census.  [claims] lists every live borrowed reference to a
    frame — kernel loans held by mbuf chains plus anons borrowing a frame
    they do not own — as [(holder description, frame id)] pairs, one pair
    per outstanding borrow.  Verifies that each frame's [loan_count]
    equals its number of claimed borrowers, and that no free frame still
    carries a loan. *)

val check_pv : system:string -> Pmap.ctx -> Physmem.t -> unit
(** pv-list symmetry: every (pmap, vpn) entry on a page's pv list must be a
    live translation of that very page, and no free page may have
    translations. *)

val check_smp : system:string -> Physmem.t -> unit
(** Sharding audit (DESIGN.md §16): colored free queues plus per-CPU
    cache holdings sum to the global free count, every page on a color
    ring carries that color and no cached tag, and every cached frame is
    free in all observable ways (free-tagged, unowned, unlinked, on a
    valid CPU) with the census matching the caches' own counts.  Valid
    on a 1-CPU machine too, where the caches are empty. *)

val check_lookup :
  system:string ->
  okey:Physmem.Lookup.okey ->
  resident:(int * Physmem.Page.t) list ->
  unit
(** Lockless-lookup diff check: for each resident (pgno, page) of the
    object behind [okey], an unlocked {!Physmem.Lookup.peek} must either
    miss or return that very frame — a different frame means the seqlock
    validation is broken. *)

val check_object_pages :
  system:string ->
  fail:(string -> string -> unit) ->
  owns:(Physmem.Page.t -> bool) ->
  okey:Physmem.Lookup.okey ->
  (int, Physmem.Page.t) Hashtbl.t ->
  unit
(** The resident pages of one memory object, keyed by page offset: each
    must be owned by the object ([owns], else [object_page_owner]), filed
    at the offset it records ([object_page_offset]) and off the free list
    ([object_page_free]); the object's lockless lookups are then
    diff-checked with {!check_lookup}.  [fail invariant detail] raises
    the kernel's {!Audit_failure}, naming the object. *)

val check_lock_order : system:string -> Sim.Lockstat.t -> unit
(** Lockdep analogue: fails on any cycle in the machine's observed
    class-level lock-order graph, naming the classes on the cycle.
    Clean on a registry that recorded nothing (tracing off). *)
