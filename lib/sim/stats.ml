type t = {
  mutable faults : int;
  mutable fault_ahead_mapped : int;
  mutable fault_ahead_used : int;
  mutable fault_ahead_wasted : int;
  mutable pageins : int;
  mutable pageouts : int;
  mutable swap_zero_pageouts : int;
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
  mutable cow_copies : int;
  mutable cow_reuses : int;
  mutable loanouts : int;
  mutable pages_loaned : int;
  mutable page_transfers : int;
  mutable swap_slots_allocated : int;
  mutable swap_slots_freed : int;
  mutable pmap_enters : int;
  mutable pmap_removes : int;
  mutable pmap_protects : int;
  mutable lock_acquisitions : int;
  mutable io_errors_injected : int;
  mutable pageout_retries : int;
  mutable pageouts_recovered : int;
  mutable pageins_failed : int;
  mutable bad_slots : int;
  mutable swap_full_events : int;
  mutable ipc_sends : int;
  mutable ipc_recvs : int;
  mutable ipc_bytes_copied : int;
  mutable ipc_bytes_loaned : int;
  mutable ipc_bytes_mapped : int;
  mutable vslock_ios : int;
  mutable swap_devices_dead : int;
  mutable swap_failovers : int;
  mutable swap_migrations : int;
  mutable swap_cache_fills : int;
  mutable swap_cache_hits : int;
  mutable swap_cache_evictions : int;
  mutable oom_kills : int;
  mutable rlimit_denials : int;
  mutable proc_swapouts : int;
  mutable proc_swapins : int;
  mutable reserve_grabs : int;
  mutable lookup_fast_hits : int;
  mutable lookup_locked : int;
  mutable cache_alloc_hits : int;
  mutable cache_alloc_misses : int;
  mutable cache_refills : int;
  mutable cache_drains : int;
  mutable cache_steals : int;
  mutable line_bounces : int;
  mutable lock_wait_us : float;
  (* Gauges: instantaneous levels, refreshed by the machine's sync hook
     just before export or sampling (diffing them is meaningless but
     harmless). *)
  mutable free_pages : int;
  mutable active_pages : int;
  mutable inactive_pages : int;
  mutable swap_slots_used : int;
  mutable swapcache_pages : int;
}

let create () =
  {
    faults = 0;
    fault_ahead_mapped = 0;
    fault_ahead_used = 0;
    fault_ahead_wasted = 0;
    pageins = 0;
    pageouts = 0;
    swap_zero_pageouts = 0;
    disk_read_ops = 0;
    disk_write_ops = 0;
    disk_pages_read = 0;
    disk_pages_written = 0;
    pages_copied = 0;
    pages_zeroed = 0;
    map_entries_allocated = 0;
    map_entries_freed = 0;
    objects_allocated = 0;
    pager_structs_allocated = 0;
    hash_lookups = 0;
    collapse_attempts = 0;
    collapse_successes = 0;
    anons_allocated = 0;
    anons_freed = 0;
    amaps_allocated = 0;
    amaps_freed = 0;
    shadow_objects_allocated = 0;
    obj_cache_hits = 0;
    obj_cache_misses = 0;
    obj_cache_evictions = 0;
    vnode_recycles = 0;
    cow_copies = 0;
    cow_reuses = 0;
    loanouts = 0;
    pages_loaned = 0;
    page_transfers = 0;
    swap_slots_allocated = 0;
    swap_slots_freed = 0;
    pmap_enters = 0;
    pmap_removes = 0;
    pmap_protects = 0;
    lock_acquisitions = 0;
    io_errors_injected = 0;
    pageout_retries = 0;
    pageouts_recovered = 0;
    pageins_failed = 0;
    bad_slots = 0;
    swap_full_events = 0;
    ipc_sends = 0;
    ipc_recvs = 0;
    ipc_bytes_copied = 0;
    ipc_bytes_loaned = 0;
    ipc_bytes_mapped = 0;
    vslock_ios = 0;
    swap_devices_dead = 0;
    swap_failovers = 0;
    swap_migrations = 0;
    swap_cache_fills = 0;
    swap_cache_hits = 0;
    swap_cache_evictions = 0;
    oom_kills = 0;
    rlimit_denials = 0;
    proc_swapouts = 0;
    proc_swapins = 0;
    reserve_grabs = 0;
    lookup_fast_hits = 0;
    lookup_locked = 0;
    cache_alloc_hits = 0;
    cache_alloc_misses = 0;
    cache_refills = 0;
    cache_drains = 0;
    cache_steals = 0;
    line_bounces = 0;
    lock_wait_us = 0.0;
    free_pages = 0;
    active_pages = 0;
    inactive_pages = 0;
    swap_slots_used = 0;
    swapcache_pages = 0;
  }

let snapshot t = { t with faults = t.faults }

(* The one field table every generic operation derives from.  Values
   travel as floats: the two duration fields are floats already, and the
   int counters stay far below 2^53, so the round trip is exact. *)
type kind = Counter | Gauge

type field = {
  name : string;
  kind : kind;
  get : t -> float;
  set : t -> float -> unit;
}

let int_field ?(kind = Counter) name get set =
  {
    name;
    kind;
    get = (fun t -> float_of_int (get t));
    set = (fun t v -> set t (int_of_float v));
  }

let gauge name get set = int_field ~kind:Gauge name get set
let float_field name get set = { name; kind = Counter; get; set }

let fields =
  [
    int_field "faults" (fun t -> t.faults) (fun t v -> t.faults <- v);
    int_field "fault_ahead_mapped" (fun t -> t.fault_ahead_mapped) (fun t v ->
        t.fault_ahead_mapped <- v);
    int_field "fault_ahead_used" (fun t -> t.fault_ahead_used) (fun t v ->
        t.fault_ahead_used <- v);
    int_field "fault_ahead_wasted" (fun t -> t.fault_ahead_wasted) (fun t v ->
        t.fault_ahead_wasted <- v);
    int_field "pageins" (fun t -> t.pageins) (fun t v -> t.pageins <- v);
    int_field "pageouts" (fun t -> t.pageouts) (fun t v -> t.pageouts <- v);
    int_field "swap_zero_pageouts" (fun t -> t.swap_zero_pageouts) (fun t v ->
        t.swap_zero_pageouts <- v);
    int_field "disk_read_ops" (fun t -> t.disk_read_ops) (fun t v ->
        t.disk_read_ops <- v);
    int_field "disk_write_ops" (fun t -> t.disk_write_ops) (fun t v ->
        t.disk_write_ops <- v);
    int_field "disk_pages_read" (fun t -> t.disk_pages_read) (fun t v ->
        t.disk_pages_read <- v);
    int_field "disk_pages_written" (fun t -> t.disk_pages_written) (fun t v ->
        t.disk_pages_written <- v);
    int_field "pages_copied" (fun t -> t.pages_copied) (fun t v ->
        t.pages_copied <- v);
    int_field "pages_zeroed" (fun t -> t.pages_zeroed) (fun t v ->
        t.pages_zeroed <- v);
    int_field "map_entries_allocated"
      (fun t -> t.map_entries_allocated)
      (fun t v -> t.map_entries_allocated <- v);
    int_field "map_entries_freed" (fun t -> t.map_entries_freed) (fun t v ->
        t.map_entries_freed <- v);
    int_field "objects_allocated" (fun t -> t.objects_allocated) (fun t v ->
        t.objects_allocated <- v);
    int_field "pager_structs_allocated"
      (fun t -> t.pager_structs_allocated)
      (fun t v -> t.pager_structs_allocated <- v);
    int_field "hash_lookups" (fun t -> t.hash_lookups) (fun t v ->
        t.hash_lookups <- v);
    int_field "collapse_attempts" (fun t -> t.collapse_attempts) (fun t v ->
        t.collapse_attempts <- v);
    int_field "collapse_successes" (fun t -> t.collapse_successes) (fun t v ->
        t.collapse_successes <- v);
    int_field "anons_allocated" (fun t -> t.anons_allocated) (fun t v ->
        t.anons_allocated <- v);
    int_field "anons_freed" (fun t -> t.anons_freed) (fun t v ->
        t.anons_freed <- v);
    int_field "amaps_allocated" (fun t -> t.amaps_allocated) (fun t v ->
        t.amaps_allocated <- v);
    int_field "amaps_freed" (fun t -> t.amaps_freed) (fun t v ->
        t.amaps_freed <- v);
    int_field "shadow_objects_allocated"
      (fun t -> t.shadow_objects_allocated)
      (fun t v -> t.shadow_objects_allocated <- v);
    int_field "obj_cache_hits" (fun t -> t.obj_cache_hits) (fun t v ->
        t.obj_cache_hits <- v);
    int_field "obj_cache_misses" (fun t -> t.obj_cache_misses) (fun t v ->
        t.obj_cache_misses <- v);
    int_field "obj_cache_evictions" (fun t -> t.obj_cache_evictions) (fun t v ->
        t.obj_cache_evictions <- v);
    int_field "vnode_recycles" (fun t -> t.vnode_recycles) (fun t v ->
        t.vnode_recycles <- v);
    int_field "cow_copies" (fun t -> t.cow_copies) (fun t v ->
        t.cow_copies <- v);
    int_field "cow_reuses" (fun t -> t.cow_reuses) (fun t v ->
        t.cow_reuses <- v);
    int_field "loanouts" (fun t -> t.loanouts) (fun t v -> t.loanouts <- v);
    int_field "pages_loaned" (fun t -> t.pages_loaned) (fun t v ->
        t.pages_loaned <- v);
    int_field "page_transfers" (fun t -> t.page_transfers) (fun t v ->
        t.page_transfers <- v);
    int_field "swap_slots_allocated"
      (fun t -> t.swap_slots_allocated)
      (fun t v -> t.swap_slots_allocated <- v);
    int_field "swap_slots_freed" (fun t -> t.swap_slots_freed) (fun t v ->
        t.swap_slots_freed <- v);
    int_field "pmap_enters" (fun t -> t.pmap_enters) (fun t v ->
        t.pmap_enters <- v);
    int_field "pmap_removes" (fun t -> t.pmap_removes) (fun t v ->
        t.pmap_removes <- v);
    int_field "pmap_protects" (fun t -> t.pmap_protects) (fun t v ->
        t.pmap_protects <- v);
    int_field "lock_acquisitions" (fun t -> t.lock_acquisitions) (fun t v ->
        t.lock_acquisitions <- v);
    int_field "io_errors_injected" (fun t -> t.io_errors_injected) (fun t v ->
        t.io_errors_injected <- v);
    int_field "pageout_retries" (fun t -> t.pageout_retries) (fun t v ->
        t.pageout_retries <- v);
    int_field "pageouts_recovered" (fun t -> t.pageouts_recovered) (fun t v ->
        t.pageouts_recovered <- v);
    int_field "pageins_failed" (fun t -> t.pageins_failed) (fun t v ->
        t.pageins_failed <- v);
    int_field "bad_slots" (fun t -> t.bad_slots) (fun t v -> t.bad_slots <- v);
    int_field "swap_full_events" (fun t -> t.swap_full_events) (fun t v ->
        t.swap_full_events <- v);
    int_field "ipc_sends" (fun t -> t.ipc_sends) (fun t v -> t.ipc_sends <- v);
    int_field "ipc_recvs" (fun t -> t.ipc_recvs) (fun t v -> t.ipc_recvs <- v);
    int_field "ipc_bytes_copied" (fun t -> t.ipc_bytes_copied) (fun t v ->
        t.ipc_bytes_copied <- v);
    int_field "ipc_bytes_loaned" (fun t -> t.ipc_bytes_loaned) (fun t v ->
        t.ipc_bytes_loaned <- v);
    int_field "ipc_bytes_mapped" (fun t -> t.ipc_bytes_mapped) (fun t v ->
        t.ipc_bytes_mapped <- v);
    int_field "vslock_ios" (fun t -> t.vslock_ios) (fun t v ->
        t.vslock_ios <- v);
    int_field "swap_devices_dead" (fun t -> t.swap_devices_dead) (fun t v ->
        t.swap_devices_dead <- v);
    int_field "swap_failovers" (fun t -> t.swap_failovers) (fun t v ->
        t.swap_failovers <- v);
    int_field "swap_migrations" (fun t -> t.swap_migrations) (fun t v ->
        t.swap_migrations <- v);
    int_field "swap_cache_fills" (fun t -> t.swap_cache_fills) (fun t v ->
        t.swap_cache_fills <- v);
    int_field "swap_cache_hits" (fun t -> t.swap_cache_hits) (fun t v ->
        t.swap_cache_hits <- v);
    int_field "swap_cache_evictions"
      (fun t -> t.swap_cache_evictions)
      (fun t v -> t.swap_cache_evictions <- v);
    int_field "oom_kills" (fun t -> t.oom_kills) (fun t v -> t.oom_kills <- v);
    int_field "rlimit_denials" (fun t -> t.rlimit_denials) (fun t v ->
        t.rlimit_denials <- v);
    int_field "proc_swapouts" (fun t -> t.proc_swapouts) (fun t v ->
        t.proc_swapouts <- v);
    int_field "proc_swapins" (fun t -> t.proc_swapins) (fun t v ->
        t.proc_swapins <- v);
    int_field "reserve_grabs" (fun t -> t.reserve_grabs) (fun t v ->
        t.reserve_grabs <- v);
    int_field "lookup_fast_hits" (fun t -> t.lookup_fast_hits) (fun t v ->
        t.lookup_fast_hits <- v);
    int_field "lookup_locked" (fun t -> t.lookup_locked) (fun t v ->
        t.lookup_locked <- v);
    int_field "cache_alloc_hits" (fun t -> t.cache_alloc_hits) (fun t v ->
        t.cache_alloc_hits <- v);
    int_field "cache_alloc_misses" (fun t -> t.cache_alloc_misses) (fun t v ->
        t.cache_alloc_misses <- v);
    int_field "cache_refills" (fun t -> t.cache_refills) (fun t v ->
        t.cache_refills <- v);
    int_field "cache_drains" (fun t -> t.cache_drains) (fun t v ->
        t.cache_drains <- v);
    int_field "cache_steals" (fun t -> t.cache_steals) (fun t v ->
        t.cache_steals <- v);
    int_field "line_bounces" (fun t -> t.line_bounces) (fun t v ->
        t.line_bounces <- v);
    float_field "lock_wait_us" (fun t -> t.lock_wait_us) (fun t v ->
        t.lock_wait_us <- v);
    gauge "free_pages" (fun t -> t.free_pages) (fun t v -> t.free_pages <- v);
    gauge "active_pages" (fun t -> t.active_pages) (fun t v ->
        t.active_pages <- v);
    gauge "inactive_pages" (fun t -> t.inactive_pages) (fun t v ->
        t.inactive_pages <- v);
    gauge "swap_slots_used" (fun t -> t.swap_slots_used) (fun t v ->
        t.swap_slots_used <- v);
    gauge "swapcache_pages" (fun t -> t.swapcache_pages) (fun t v ->
        t.swapcache_pages <- v);
  ]

let reset t = List.iter (fun f -> f.set t 0.0) fields

(* Field-wise subtraction, gauges included (diffing a level is
   meaningless but harmless). *)
let diff ~after ~before =
  let d = create () in
  List.iter (fun f -> f.set d (f.get after -. f.get before)) fields;
  d

(* Accumulate [d] (typically a [diff] of a scheduler quantum) into a
   per-CPU shard.  Counters and durations sum; gauges are levels, so the
   latest value wins — shard readers only ever consult the counters. *)
let add ~into:t d =
  List.iter
    (fun f ->
      match f.kind with
      | Counter -> f.set t (f.get t +. f.get d)
      | Gauge -> f.set t (f.get d))
    fields

let to_rows t = List.map (fun f -> (f.name, f.get t)) fields

let pp ppf t =
  List.iter
    (fun (name, v) ->
      if v <> 0.0 then Format.fprintf ppf "%-28s %12.1f@." name v)
    (to_rows t)
