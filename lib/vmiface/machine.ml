type config = {
  ram_pages : int;
  swap_pages : int;
  swap_tiers : Swap.Swaptier.spec list option;
  page_size : int;
  max_vnodes : int;
  costs : Sim.Cost_model.t;
  seed : int;
  fault_plan : (unit -> Sim.Fault_plan.t) option;
  trace_buf : int option;
  ncpus : int;  (* virtual CPUs: sizes physmem's per-CPU page caches *)
}

let default_config =
  {
    ram_pages = 8192 (* 32 MB of 4 KB pages *);
    swap_pages = 32768 (* 128 MB *);
    swap_tiers = None;
    page_size = 4096;
    max_vnodes = 2048;
    costs = Sim.Cost_model.default;
    seed = 0xB5D;
    fault_plan = None;
    trace_buf = None;
    ncpus = 1;
  }

(* The CLI session: defaults set by CLI flags, so any experiment runs
   under a fault plan or tracing without plumbing config through every
   call site, and the observability state of every traced boot.  The
   fault plan is a factory rather than a plan so each boot (e.g. the UVM
   and BSD sides of a comparison) gets its own fresh, identically-seeded
   plan.  A traced source's gauge sync reads its machine, so [traced]
   keeps those machines alive until [reset_traced].

   This is the library's one piece of state outside any machine, and it
   is Domain-local: a domain spawned by a parallel runner starts with its
   parent's defaults and an empty [traced] list, so machines booted on
   different domains share nothing. *)
type session = {
  mutable fault_plan : (unit -> Sim.Fault_plan.t) option;
  mutable trace_buf : int option;
  mutable traced : Sim.Trace_export.source list;  (* newest first *)
}

let session_key =
  Domain.DLS.new_key
    ~split_from_parent:(fun s -> { s with traced = [] })
    (fun () -> { fault_plan = None; trace_buf = None; traced = [] })

let session () = Domain.DLS.get session_key
let set_default_fault_plan f = (session ()).fault_plan <- f
let set_default_trace n = (session ()).trace_buf <- n
let traced () = List.rev (session ()).traced
let reset_traced () = (session ()).traced <- []

let config_mb ?(ram_mb = 32) ?(swap_mb = 128) () =
  {
    default_config with
    ram_pages = ram_mb * 1024 * 1024 / default_config.page_size;
    swap_pages = swap_mb * 1024 * 1024 / default_config.page_size;
  }

(* Two-tier swap on top of any config: a fast/small NVMe-like device
   (priority 0, 100x disk speed) in front of a slow/large disk-like one.
   [swap_pages] is kept at the combined capacity so size-based reasoning
   about the config stays valid. *)
let tiered ~fast_pages ~slow_pages config =
  {
    config with
    swap_pages = fast_pages + slow_pages;
    swap_tiers =
      Some
        [
          {
            Swap.Swaptier.tier_name = "fast";
            tier_pages = fast_pages;
            tier_priority = 0;
            tier_costs = Some (Sim.Cost_model.fast_disk config.costs);
          };
          {
            Swap.Swaptier.tier_name = "slow";
            tier_pages = slow_pages;
            tier_priority = 1;
            tier_costs = None;
          };
        ];
  }

type t = {
  config : config;
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  rng : Sim.Rng.t;
  physmem : Physmem.t;
  pmap_ctx : Pmap.ctx;
  swap : Swap.Swaptier.t;
  vfs : Vfs.t;
  lifecycle : Sim.Lifecycle.t;
  spans : Sim.Span.t;
  series : Sim.Timeseries.t;
  locks : Sim.Lockstat.t;
  trace_source : Sim.Trace_export.source;
  mutable runnable_probe : (int -> int) option;
      (* per-CPU runnable count for the sampler; the SMP scheduler
         installs [Smp.runnable] here so vmstat's cpuK:runnable column
         reflects the storm in flight *)
  access_cost : float;
      (* [costs.mem_access], boxed once at boot *)
  mutable next_id : int;
  mutable next_kernel_id : int;
}

(* Sampling period of the vmstat-style time series, in simulated
   microseconds.  1 ms gives ~1000 samples per simulated second, well
   within the sampler's ring. *)
let sample_interval_us = 1_000.0

(* The sampler's fixed columns, in order: each one's name and how it is
   read, once the gauges are synced. *)
let fixed_columns =
  let count f t = float_of_int (f t.stats) in
  Sim.Stats.
    [
      ("free_pages", count (fun s -> s.free_pages));
      ("active_pages", count (fun s -> s.active_pages));
      ("inactive_pages", count (fun s -> s.inactive_pages));
      ("swap_slots_used", count (fun s -> s.swap_slots_used));
      ("swapcache_pages", count (fun s -> s.swapcache_pages));
      ( "drain_pending",
        fun t -> if Swap.Swaptier.drain_pending t.swap then 1.0 else 0.0 );
      ("faults", count (fun s -> s.faults));
      ("pageins", count (fun s -> s.pageins));
      ("pageouts", count (fun s -> s.pageouts));
      ("disk_pages_read", count (fun s -> s.disk_pages_read));
      ("disk_pages_written", count (fun s -> s.disk_pages_written));
      ("swap_migrations", count (fun s -> s.swap_migrations));
      ("oom_kills", count (fun s -> s.oom_kills));
      ("rlimit_denials", count (fun s -> s.rlimit_denials));
      ("proc_swapouts", count (fun s -> s.proc_swapouts));
      ("proc_swapins", count (fun s -> s.proc_swapins));
    ]

(* Top-level, so a sample builds no closure to read them. *)
let rec read_columns t = function
  | [] -> []
  | (_, read) :: rest -> read t :: read_columns t rest

let boot ?(config = default_config) () =
  let session = session () in
  let clock = Sim.Simclock.create () in
  let costs = config.costs in
  let stats = Sim.Stats.create () in
  let lifecycle = Sim.Lifecycle.create () in
  let trace_buf =
    match config.trace_buf with Some _ as n -> n | None -> session.trace_buf
  in
  let spans =
    match trace_buf with
    | Some capacity -> Sim.Span.create ~capacity ~enabled:true ()
    | None -> Sim.Span.create ~enabled:false ()
  in
  let series = Sim.Timeseries.create ~interval:sample_interval_us () in
  (* The lock registry records when tracing is on; its span sink stays
     wired regardless so an experiment that flips spans on per machine
     (serve) still sees lock:<class> spans in its critical paths. *)
  let locks =
    Sim.Lockstat.create
      ~enabled:(trace_buf <> None)
      ~now:(fun () -> Sim.Simclock.now clock)
      ()
  in
  Sim.Lockstat.set_spans locks (Some spans);
  let trace_source =
    {
      Sim.Trace_export.label = "vm";
      stats;
      lifecycle;
      spans;
      series;
      locks = Some locks;
      sync = (fun () -> ());
    }
  in
  let t =
    {
      config;
      clock;
      costs;
      stats;
      rng = Sim.Rng.create ~seed:config.seed;
      physmem =
        Physmem.create ~page_size:config.page_size ~lifecycle
          ~ncpus:config.ncpus ~npages:config.ram_pages ~clock ~costs ~stats ();
      pmap_ctx =
        Pmap.create_ctx ~lifecycle ~npages:config.ram_pages ~clock ~costs
          ~stats ();
      swap =
        (let specs =
           match config.swap_tiers with
           | Some specs -> specs
           | None ->
               [
                 {
                   Swap.Swaptier.tier_name = "swap0";
                   tier_pages = config.swap_pages;
                   tier_priority = 0;
                   tier_costs = None;
                 };
               ]
         in
         Swap.Swaptier.create ~specs ~page_size:config.page_size ~clock ~costs
           ~stats);
      vfs =
        Vfs.create ~max_vnodes:config.max_vnodes ~page_size:config.page_size
          ~clock ~costs ~stats ();
      lifecycle;
      spans;
      series;
      locks;
      trace_source;
      runnable_probe = None;
      access_cost = costs.Sim.Cost_model.mem_access;
      next_id = 0;
      next_kernel_id = 0;
    }
  in
  (* Span, gauge-sync and sampler wiring is installed unconditionally:
     the collector itself is disabled unless tracing is on, but an
     experiment (serve) can flip it on per machine and get the full
     causal tree, swap tiers included.  Only the clock hook and the
     traced-source registration stay gated on tracing. *)
  Swap.Swaptier.set_spans t.swap (Some spans);
  Swap.Swaptier.set_lockstat t.swap (Some locks);
  Physmem.set_lockstat t.physmem (Some locks);
  (* One source of truth for the instantaneous gauges: both the stats
     export and the sampler read them through this closure. *)
  (let sync () =
      stats.Sim.Stats.free_pages <- Physmem.free_count t.physmem;
      stats.Sim.Stats.active_pages <- Physmem.active_count t.physmem;
      stats.Sim.Stats.inactive_pages <- Physmem.inactive_count t.physmem;
      stats.Sim.Stats.swap_slots_used <- Swap.Swaptier.slots_in_use t.swap;
      stats.Sim.Stats.swapcache_pages <- Swap.Swaptier.cache_slots t.swap
    in
    trace_source.Sim.Trace_export.sync <- sync;
    let tier_names =
      List.map (fun ti -> ti.Swap.Swaptier.ti_name) (Swap.Swaptier.tiers t.swap)
    in
    let columns =
      List.map fst fixed_columns
      @ List.map (fun n -> "tier:" ^ n) tier_names
      @ [ "lock_acquires"; "lock_maxhold_us" ]
      @ List.map (fun c -> "lockheld:" ^ c) Sim.Lockstat.known_classes
      @ (if config.ncpus <= 1 then []
         else
           List.concat_map
             (fun k ->
               let p = Printf.sprintf "cpu%d:" k in
               [ p ^ "runnable"; p ^ "steals"; p ^ "hit_rate"; p ^ "refills" ])
             (List.init config.ncpus Fun.id))
    in
    let probe () =
      sync ();
      let fixed = read_columns t fixed_columns in
      let tiers =
        List.map
          (fun ti -> float_of_int ti.Swap.Swaptier.ti_in_use)
          (Swap.Swaptier.tiers t.swap)
      in
      let lock_cols =
        float_of_int (Sim.Lockstat.total_acquires locks)
        :: Sim.Lockstat.take_window_max_us locks
        :: List.map
             (fun c -> Sim.Lockstat.class_hold_us locks c)
             Sim.Lockstat.known_classes
      in
      let cpu_cols =
        if config.ncpus <= 1 then []
        else
          List.concat_map
            (fun (cw : Physmem.cache_view) ->
              let runnable =
                match t.runnable_probe with
                | Some f -> float_of_int (f cw.Physmem.cw_cpu)
                | None -> 0.0
              in
              let tries = cw.Physmem.cw_hits + cw.Physmem.cw_misses in
              let hit_rate =
                if tries = 0 then 0.0
                else float_of_int cw.Physmem.cw_hits /. float_of_int tries
              in
              [
                runnable;
                float_of_int cw.Physmem.cw_steals;
                hit_rate;
                float_of_int cw.Physmem.cw_refills;
              ])
            (Physmem.cache_views t.physmem)
      in
      Array.of_list (fixed @ tiers @ lock_cols @ cpu_cols)
    in
    Sim.Timeseries.set_probe series ~columns probe;
    (* Watchdogs over a 4-sample window, each reading the columns it
       names. *)
    let col name = Option.get (Sim.Timeseries.col_index series name) in
    let c_free = col "free_pages" and c_drain = col "drain_pending" in
    let c_pageouts = col "pageouts" and c_migrations = col "swap_migrations" in
    let c_swapouts = col "proc_swapouts" and c_swapins = col "proc_swapins" in
    let delta (w : Sim.Timeseries.sample array) col =
      let n = Array.length w in
      w.(n - 1).Sim.Timeseries.s_values.(col)
      -. w.(0).Sim.Timeseries.s_values.(col)
    in
    Sim.Timeseries.add_rule series ~name:"pdaemon_thrash" ~window:4 (fun w ->
        let freemin = float_of_int (Physmem.freemin t.physmem) in
        let starved =
          Array.for_all
            (fun (s : Sim.Timeseries.sample) -> s.s_values.(c_free) < freemin)
            w
        in
        let pageouts = delta w c_pageouts in
        if starved && pageouts > 0.0 then
          Some
            [
              ( "free_pages",
                Printf.sprintf "%.0f"
                  w.(Array.length w - 1).Sim.Timeseries.s_values.(c_free) );
              ("freemin", Printf.sprintf "%.0f" freemin);
              ("pageouts_in_window", Printf.sprintf "%.0f" pageouts);
            ]
        else None);
    Sim.Timeseries.add_rule series ~name:"drain_stall" ~window:4 (fun w ->
        let draining =
          Array.for_all
            (fun (s : Sim.Timeseries.sample) -> s.s_values.(c_drain) > 0.0)
            w
        in
        if draining && delta w c_migrations <= 0.0 then
          Some
            [ ("drain_pending", "true"); ("migrations_in_window", "0") ]
        else None);
    (* Swapping a process out and another back in within the same short
       window means the overload policy is churning the same memory —
       the 4.3BSD thrash signature process swapping was meant to damp. *)
    Sim.Timeseries.add_rule series ~name:"proc_thrash" ~window:4 (fun w ->
        let souts = delta w c_swapouts and sins = delta w c_swapins in
        if souts > 0.0 && sins > 0.0 then
          Some
            [
              ("swapouts_in_window", Printf.sprintf "%.0f" souts);
              ("swapins_in_window", Printf.sprintf "%.0f" sins);
            ]
        else None);
    (* One lock class soaking up most of the window's simulated time is
       the serialization the SMP sharding work must break; surface it as
       it happens rather than waiting for the post-run profile. *)
    let c_held =
      List.map
        (fun cls -> (cls, col ("lockheld:" ^ cls)))
        Sim.Lockstat.known_classes
    in
    let lock_hog_share = 0.9 in
    Sim.Timeseries.add_rule series ~name:"lock_hog" ~window:4 (fun w ->
        let wall =
          w.(Array.length w - 1).Sim.Timeseries.s_ts
          -. w.(0).Sim.Timeseries.s_ts
        in
        if wall <= 0.0 then None
        else
          let hog = ref None in
          List.iter
            (fun (cls, c) ->
              let held = delta w c in
              let share = held /. wall in
              if share > lock_hog_share then
                match !hog with
                | Some (_, _, best) when best >= share -> ()
                | _ -> hog := Some (cls, held, share))
            c_held;
          match !hog with
          | Some (cls, held, share) ->
              Some
                [
                  ("class", cls);
                  ("held_in_window_us", Printf.sprintf "%.0f" held);
                  ("share", Printf.sprintf "%.2f" share);
                ]
          | None -> None);
    (* A CPU whose free cache keeps refilling inside one window is
       starved: its batches are being consumed (or stolen) faster than
       the target refill cadence — the cache is too small or the colored
       queues too empty for the access pattern. *)
    if config.ncpus > 1 then begin
      let c_refills =
        Array.init config.ncpus (fun k ->
            col (Printf.sprintf "cpu%d:refills" k))
      in
      let starve_refills = 8.0 in
      Sim.Timeseries.add_rule series ~name:"cache_starved" ~window:4 (fun w ->
          let worst = ref None in
          for k = 0 to config.ncpus - 1 do
            let refills = delta w c_refills.(k) in
            if refills > starve_refills then
              match !worst with
              | Some (_, best) when best >= refills -> ()
              | _ -> worst := Some (k, refills)
          done;
          match !worst with
          | Some (k, refills) ->
              Some
                [
                  ("cpu", string_of_int k);
                  ("refills_in_window", Printf.sprintf "%.0f" refills);
                  ("limit", Printf.sprintf "%.0f" starve_refills);
                ]
          | None -> None)
    end);
  if trace_buf <> None then begin
    Sim.Timeseries.attach series clock;
    session.traced <- trace_source :: session.traced
  end;
  (match
     match config.fault_plan with
     | Some _ as f -> f
     | None -> session.fault_plan
   with
  | None -> ()
  | Some factory ->
      (* One plan shared by every disk: its RNG stream and scripted rules
         see the machine's I/O in global order, like a shared controller. *)
      let plan = Some (factory ()) in
      List.iter
        (fun disk -> Sim.Disk.set_fault_plan disk plan)
        (Swap.Swaptier.disks t.swap);
      Sim.Disk.set_fault_plan (Vfs.disk t.vfs) plan);
  t

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let page_size t = t.config.page_size
let set_runnable_probe t f = t.runnable_probe <- f
let[@inline] now t = Sim.Simclock.now t.clock
let[@inline] charge t us = Sim.Simclock.advance t.clock us

(* Both test the collector first, so an untraced run reads no timestamp:
   without cross-module inlining, that read would box a float. *)
let span_start t ~subsys name =
  if Sim.Span.enabled t.spans then
    Sim.Span.start t.spans ~subsys ~ts:(now t) name
  else Sim.Span.dummy

let span_finish t sp detail =
  if Sim.Span.live sp then Sim.Span.finish_with t.spans sp ~ts:(now t) detail

let set_label t label = t.trace_source.Sim.Trace_export.label <- label
