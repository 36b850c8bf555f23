(** Event counters shared by every layer of the simulator.

    A single [Stats.t] is threaded through a simulated system; the
    experiments read counters (page faults for Table 2, map entries for
    Table 1, disk operations for Figures 2/5, ...) and tests assert
    accounting invariants against them. *)

type t = {
  mutable faults : int;  (** page faults taken *)
  mutable fault_ahead_mapped : int;  (** resident neighbours mapped by fault-ahead *)
  mutable fault_ahead_used : int;  (** fault-ahead pages touched before eviction *)
  mutable fault_ahead_wasted : int;  (** fault-ahead pages evicted/refaulted untouched *)
  mutable pageins : int;  (** pages read from backing store *)
  mutable pageouts : int;  (** pages written to backing store *)
  mutable swap_zero_pageouts : int;  (** swap pageouts of all-zero pages, stored as a tag *)
  mutable disk_read_ops : int;
  mutable disk_write_ops : int;
  mutable disk_pages_read : int;
  mutable disk_pages_written : int;
  mutable pages_copied : int;
  mutable pages_zeroed : int;
  mutable map_entries_allocated : int;
  mutable map_entries_freed : int;
  mutable objects_allocated : int;
  mutable pager_structs_allocated : int;
  mutable hash_lookups : int;
  mutable collapse_attempts : int;
  mutable collapse_successes : int;
  mutable anons_allocated : int;
  mutable anons_freed : int;
  mutable amaps_allocated : int;
  mutable amaps_freed : int;
  mutable shadow_objects_allocated : int;
  mutable obj_cache_hits : int;
  mutable obj_cache_misses : int;
  mutable obj_cache_evictions : int;
  mutable vnode_recycles : int;
  mutable cow_copies : int;  (** COW faults resolved by copying *)
  mutable cow_reuses : int;  (** COW faults resolved in place (refs = 1) *)
  mutable loanouts : int;
  mutable pages_loaned : int;
  mutable page_transfers : int;
  mutable swap_slots_allocated : int;
  mutable swap_slots_freed : int;
  mutable pmap_enters : int;
  mutable pmap_removes : int;
  mutable pmap_protects : int;
  mutable lock_acquisitions : int;
  mutable io_errors_injected : int;  (** disk transfers failed by the fault plan *)
  mutable pageout_retries : int;  (** pageout attempts repeated after a transient error *)
  mutable pageouts_recovered : int;  (** pageouts that succeeded after retry/reassignment *)
  mutable pageins_failed : int;  (** pageins abandoned after exhausting retries *)
  mutable bad_slots : int;  (** swap slots blacklisted as bad media *)
  mutable swap_full_events : int;  (** times slot allocation failed: swap exhausted *)
  mutable ipc_sends : int;  (** IPC send syscalls accepted *)
  mutable ipc_recvs : int;  (** IPC recv syscalls that returned data *)
  mutable ipc_bytes_copied : int;  (** IPC payload bytes moved by copying *)
  mutable ipc_bytes_loaned : int;  (** IPC payload bytes moved by page loanout *)
  mutable ipc_bytes_mapped : int;  (** IPC payload bytes moved by map-entry passing *)
  mutable vslock_ios : int;  (** physio-style transfers over a vslock'd buffer *)
  mutable swap_devices_dead : int;  (** whole swap devices declared dead *)
  mutable swap_failovers : int;  (** pageout reassignments that crossed devices *)
  mutable swap_migrations : int;  (** slots drained from a dying device to a healthy one *)
  mutable swap_cache_fills : int;  (** clean vnode pages spilled into the swapcache *)
  mutable swap_cache_hits : int;  (** refaults served from the swapcache *)
  mutable swap_cache_evictions : int;  (** cache entries shed (pressure, death, invalidation) *)
  mutable oom_kills : int;  (** processes reaped by the OOM victim policy *)
  mutable rlimit_denials : int;  (** allocations refused by a per-process resource limit *)
  mutable proc_swapouts : int;  (** whole processes swapped out under sustained shortage *)
  mutable proc_swapins : int;  (** swapped-out processes brought back in *)
  mutable reserve_grabs : int;  (** privileged allocations served from the kernel reserve *)
  mutable lookup_fast_hits : int;  (** page lookups served by the lockless fast path *)
  mutable lookup_locked : int;  (** page lookups that took the locked path *)
  mutable cache_alloc_hits : int;  (** page allocations served from a per-CPU free cache *)
  mutable cache_alloc_misses : int;  (** allocations that fell through to the colored queues *)
  mutable cache_refills : int;  (** per-CPU cache refill batches pulled from the queues *)
  mutable cache_drains : int;  (** per-CPU cache drains back to the colored queues *)
  mutable cache_steals : int;  (** cache fills served outside the CPU's preferred colors *)
  mutable line_bounces : int;  (** cross-CPU lock-line transfers charged by the SMP model *)
  mutable lock_wait_us : float;  (** simulated time spent waiting on contended locks *)
  mutable free_pages : int;  (** gauge: free-list depth at last sync *)
  mutable active_pages : int;  (** gauge: active-queue depth at last sync *)
  mutable inactive_pages : int;  (** gauge: inactive-queue depth at last sync *)
  mutable swap_slots_used : int;  (** gauge: slots in use across all tiers *)
  mutable swapcache_pages : int;  (** gauge: swapcache entries held *)
}

val create : unit -> t

(** {1 The field table}

    Every generic operation below is derived from {!fields}, the one
    place that names each record field.  Values travel as floats (the
    int counters stay far below 2{^53}, so the round trip is exact). *)

type kind =
  | Counter  (** a flow: sums under {!add} *)
  | Gauge  (** a level refreshed by the machine's sync hook: latest wins *)

type field = {
  name : string;
  kind : kind;
  get : t -> float;
  set : t -> float -> unit;
}

val fields : field list
(** Every record field, in declaration order. *)

val reset : t -> unit

val snapshot : t -> t
(** An independent copy (for before/after deltas in experiments). *)

val diff : after:t -> before:t -> t
(** Field-wise subtraction. *)

val add : into:t -> t -> unit
(** Accumulate a delta (typically a {!diff} over one scheduler quantum)
    into a per-CPU shard: counters and durations sum, gauges take the
    delta's value (levels, not flows). *)

val to_rows : t -> (string * float) list
(** All counters as printable rows, in declaration order. *)

val pp : Format.formatter -> t -> unit
(** Print the non-zero counters, one per line. *)
