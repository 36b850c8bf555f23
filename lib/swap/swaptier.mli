(** Tiered swap: several {!Swapdev} devices behind one slot namespace.

    The paper treats swap as a single uniform device; real systems spread
    it over heterogeneous media — a fast/small NVMe-like tier and a
    slow/large disk-like tier.  Each device here gets a priority, its own
    capacity and its own cost model (and, via {!disks}, its own fault
    plan).  Allocation is priority-ordered with round-robin striping
    inside an equal-priority band, and slots live in one global integer
    namespace (device-local slots offset by the device's base), so an
    [an_swslot]-style handle stays a single int and slot 0 still means
    "none".  Contiguous clusters never span devices.

    On top of the tier set sit the robustness mechanisms:

    - {b device death} ({!kill_device}): the media rejects all further
      writes, the device leaves the allocation pool, and its cache
      entries are shed — but reads still work, which is what lets the
      pagedaemon-driven drain ({!run_drain}/{!migrate_slot}) move the
      surviving slots to healthy tiers.  {!swapoff} is the administrative
      variant: same drain, media still healthy.
    - {b failover}: {!write_resilient} recovers from a permanent error by
      reallocating anywhere in the healthy tier set; a reassignment that
      crosses devices counts as a failover.
    - {b swapcache} ({!cache_put}/{!cache_lookup}): clean vnode pages
      spilled to a strictly-faster tier so re-faults hit cheap swap
      instead of the slow vnode pager.  Cache entries are the first
      sacrifice under slot pressure, and the cache stays inert on
      single-tier boots (no faster tier exists).

    All counters feed the machine-global {!Sim.Stats} record.  Tier
    events are spans: device reads/writes, drain and migrate carry their
    duration; device_dead, swapoff, drain_complete, slot_bad, reassign
    and failover are zero-length spans.  Per-page swapcache traffic is
    counted, not traced. *)

type spec = {
  tier_name : string;
  tier_pages : int;  (** device capacity in slots *)
  tier_priority : int;  (** lower allocates first *)
  tier_costs : Sim.Cost_model.t option;  (** [None]: the machine's model *)
}

type t

val create :
  specs:spec list ->
  page_size:int ->
  clock:Sim.Simclock.t ->
  costs:Sim.Cost_model.t ->
  stats:Sim.Stats.t ->
  t
(** @raise Invalid_argument on an empty spec list or an empty device. *)

(* -- the Swapdev surface, over the global namespace ------------------- *)

val capacity : t -> int
val slots_in_use : t -> int

val slots_usable : t -> int
(** Allocatable capacity: healthy in-pool devices net of blacklisted
    slots; dead or swapped-off devices contribute nothing. *)

val is_bad_slot : t -> slot:int -> bool
(** Per-slot blacklist, or the whole device is dead. *)

val is_allocated_slot : t -> slot:int -> bool

val alloc_slots : t -> n:int -> int option
(** Reserve [n] contiguous slots on the best willing device (priority
    order, striped within a band).  Under slot pressure the swapcache is
    shed entry by entry until the allocation fits — the first rung of the
    degradation ladder. *)

val free_slots : t -> slot:int -> n:int -> unit

val write_cluster :
  t ->
  slot:int ->
  pages:Physmem.Page.t array ->
  n:int ->
  (unit, Sim.Fault_plan.error) result
(** {!Swapdev.write_cluster} of [pages.(0 .. n-1)] at global [slot].
    Fails permanently (without touching the media) when the device is
    dead. *)

val read_slot :
  t -> slot:int -> dst:Physmem.Page.t -> (unit, Sim.Fault_plan.error) result
(** Reads are served even from a dead device (dying media rejects writes
    but stays readable — the drain window). *)

type write_outcome =
  | Written  (** on the original slots, possibly after transient retries *)
  | Reassigned of int
      (** permanent error: bad slot blacklisted, cluster rewritten at the
          returned base slot *)
  | No_space of Sim.Fault_plan.error
      (** permanent error and no replacement slots available *)
  | Failed of Sim.Fault_plan.error
      (** transient error persisted through every retry *)

val write_resilient :
  t ->
  retries:int ->
  backoff_us:float ->
  slot:int ->
  assign:(int -> unit) ->
  pages:Physmem.Page.t array ->
  n:int ->
  write_outcome
(** [write_cluster] under the full recovery policy.  Transient errors are
    retried up to [retries] times with exponential backoff
    ([backoff_us * 2^attempt]) charged to the simulated clock.  A
    permanent error blacklists the offending slot, allocates a fresh
    contiguous range on any healthy device (priority order) and calls
    [assign base] so the caller rebinds its bookkeeping (anon swslots /
    object slot tables) to the new range — the caller must free the old
    slots in [assign], which permanently retires the blacklisted one —
    then rewrites there.  A cross-device reassignment counts into
    [Stats.swap_failovers] and records a [failover] event.  Successful
    recovery (any path involving a retry or reassignment) counts into
    [Stats.pageouts_recovered].  A first attempt that succeeds allocates
    nothing beyond {!write_cluster}'s copies; a caller that keeps
    [assign] across calls allocates nothing for it either. *)

val disks : t -> Sim.Disk.t list
(** Every device's disk, in creation order — for fault-plan install. *)

val set_spans : t -> Sim.Span.t option -> unit
(** Causal span collector for every tier event.  Device reads/writes
    open spans under ["swap:<tier>"] (with the global slot and page
    count) so critical-path breakdowns attribute tail latency to the
    tier that caused it. *)

val set_lockstat : t -> Sim.Lockstat.t option -> unit
(** Register the swap-tier lock with the machine's lock observatory:
    every public entry point (slot alloc/free, paging I/O, drain,
    migration, swapcache) then records a hold of the ["swap"] class,
    read-mode for lookups and reads, write-mode otherwise. *)

(* -- device death, swapoff, drain ------------------------------------ *)

val kill_device : t -> name:string -> unit
(** Whole-device permanent failure: every further write fails, the device
    leaves the allocation pool, its swapcache entries are shed, and it is
    marked draining so the pagedaemon migrates the surviving slots away.
    Idempotent.  @raise Invalid_argument on an unknown name. *)

val swapoff : t -> name:string -> unit
(** Administrative removal: like death but the media stays readable and
    healthy; runs one synchronous drain pass before returning. *)

val device_alive : t -> name:string -> bool

val drain_pending : t -> bool
(** Some offline device still owns slots. *)

val set_drain_hook : t -> (unit -> unit) option -> unit
(** The VM system's migration walk: called by {!run_drain}, it must visit
    every owner of a slot for which {!slot_needs_drain} holds, call
    {!migrate_slot}, rebind its bookkeeping to the fresh slot and free
    the old one. *)

val run_drain : t -> unit
(** Invoke the drain hook if a drain is pending, then retire devices that
    finished draining.  Called by both pagedaemons on every run. *)

val slot_needs_drain : t -> slot:int -> bool

val migrate_slot : t -> slot:int -> int option
(** Copy one slot's bytes to a healthy device (both transfers charged);
    returns the fresh global slot — the caller rebinds and frees the old
    slot.  [None] when nothing was stored, the read failed, or no healthy
    device has room even after shedding the cache. *)

(* -- swapcache ------------------------------------------------------- *)

val cache_put : t -> vid:int -> pgno:int -> page:Physmem.Page.t -> unit
(** Spill a clean vnode page ([vid] = vnode id) to the fastest healthy
    tier that is strictly faster than the slowest — on a single-tier boot
    this never fires.  Fills keep a small per-device reserve free and are
    dropped silently when space or the write fails. *)

val cache_lookup : t -> vid:int -> pgno:int -> dst:Physmem.Page.t -> bool
(** Serve a re-fault from the cache: true on a hit (page data filled,
    marked clean, charged at the caching tier's speed).  An unreadable
    entry is dropped and the caller falls back to the vnode. *)

val cache_contains : t -> vid:int -> pgno:int -> bool

val cache_invalidate : t -> vid:int -> pgno:int -> unit
(** The file page changed (or is being written back): the cached copy is
    stale, drop it. *)

val cache_invalidate_obj : t -> vid:int -> unit
(** Object teardown: drop every cache entry of the vnode. *)

val cache_slots : t -> int
(** Live cache entries (= slots charged to the cache). *)

(* -- introspection and audit support --------------------------------- *)

type tier_info = {
  ti_name : string;
  ti_priority : int;
  ti_capacity : int;
  ti_in_use : int;
  ti_usable : int;
  ti_alive : bool;
  ti_draining : bool;
  ti_pageouts : int;
  ti_pageins : int;
  ti_migrated_out : int;
  ti_cache_slots : int;
}

val tiers : t -> tier_info list
(** Per-device accounting, in creation order. *)

val cache_claims : t -> ((int * int) * int) list
(** [((vid, pgno), slot)] for every cache entry, sorted by slot — the
    swapcache's side of the slot-ownership audit. *)

val slot_on_dead_device : t -> slot:int -> bool

val undrained_violation : t -> string option
(** A device that finished draining but owns slots again — allocator
    handed out slots on retired media.  [None] when the invariant
    holds. *)

module Testhook : sig
  val leak_cache_entry : t -> bool
  (** Seeded corruption: register a swapcache entry over a slot that was
      freed underneath it, so the audit sees the cache claiming media it
      does not own.  False if swap is completely full. *)
end
