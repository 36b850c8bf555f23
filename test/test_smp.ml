(* Simulated SMP (DESIGN.md §16): the per-CPU free-page caches against
   the colored queues (drain returns pages to the right color ring,
   refills never dig into the reserve), the scheduler's determinism
   contract, and the full storm experiment at 4 and 16 CPUs with every
   mid-storm audit clean. *)

let mk ?(npages = 128) ?(ncpus = 4) () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let pm =
    Physmem.create ~page_size:256 ~npages ~ncpus ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (pm, stats)

(* -- per-CPU caches vs colored queues ----------------------------------- *)

let test_drain_returns_to_color_queue () =
  let pm, _ = mk () in
  Physmem.set_current_cpu pm 1;
  (* Fault the caches into life, then free the page so CPU 1's cache has
     had at least one refill behind it. *)
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Physmem.free_page pm p;
  let held =
    List.fold_left (fun n v -> n + v.Physmem.cw_held) 0 (Physmem.cache_views pm)
  in
  Alcotest.(check bool) "some pages are cached" true (held > 0);
  Physmem.drain_caches pm;
  List.iter
    (fun v -> Alcotest.(check int) "cache empty after drain" 0 v.Physmem.cw_held)
    (Physmem.cache_views pm);
  Alcotest.(check int) "every frame back on the queues"
    (Physmem.free_count pm)
    (Physmem.queue_free_count pm);
  (* The color invariant: every page on color ring c has color c — and
     the rings jointly hold every free frame. *)
  let total = ref 0 in
  for c = 0 to Physmem.ncolors - 1 do
    List.iter
      (fun (page : Physmem.Page.t) ->
        Alcotest.(check int)
          (Printf.sprintf "frame %d on ring %d" page.Physmem.Page.id c)
          c page.Physmem.Page.color;
        incr total)
      (Physmem.free_pages_of_color pm c)
  done;
  Alcotest.(check int) "rings sum to the free count" (Physmem.free_count pm)
    !total;
  Check.check_smp ~system:"TEST" pm

let test_refill_respects_reserve () =
  let pm, _ = mk ~npages:128 ~ncpus:4 () in
  let reserve = Physmem.reserve pm in
  Alcotest.(check bool) "machine has a reserve" true (reserve > 0);
  (* Allocate everything allocatable on a rotating CPU: however the
     caches batch their refills, the colored queues must never drop
     below the reserve while frames are still cached. *)
  let stash = ref [] in
  (try
     let cpu = ref 0 in
     while true do
       Physmem.set_current_cpu pm (!cpu mod Physmem.ncpus pm);
       incr cpu;
       stash :=
         Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () :: !stash;
       let held =
         List.fold_left
           (fun n v -> n + v.Physmem.cw_held)
           0 (Physmem.cache_views pm)
       in
       if held > 0 then
         Alcotest.(check bool)
           (Printf.sprintf "queues (%d) stay above reserve (%d) while %d cached"
              (Physmem.queue_free_count pm)
              reserve held)
           true
           (Physmem.queue_free_count pm >= reserve)
     done
   with Physmem.Out_of_pages -> ());
  (* Out of pages precisely because the queues refused to dig into the
     reserve: what's left free is the reserve plus whatever is stranded
     in other CPUs' caches — and nothing has been lost. *)
  Alcotest.(check bool) "queues stopped at the reserve" true
    (Physmem.queue_free_count pm <= reserve);
  Alcotest.(check int) "no frame lost" 128
    (List.length !stash + Physmem.free_count pm);
  Alcotest.(check bool) "allocated most of RAM" true
    (List.length !stash >= 128 / 2);
  Check.check_smp ~system:"TEST" pm;
  List.iter (fun p -> Physmem.free_page pm p) !stash

let test_cache_stats_flow () =
  let pm, stats = mk () in
  Physmem.set_current_cpu pm 2;
  let ps =
    List.init 8 (fun i ->
        Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:i ())
  in
  List.iter (fun p -> Physmem.free_page pm p) ps;
  Alcotest.(check bool) "refills counted" true
    (stats.Sim.Stats.cache_refills > 0);
  Alcotest.(check bool) "hits counted" true
    (stats.Sim.Stats.cache_alloc_hits > 0);
  let v = List.nth (Physmem.cache_views pm) 2 in
  Alcotest.(check bool) "per-cpu hit view" true (v.Physmem.cw_hits > 0)

(* -- the scheduler's determinism contract -------------------------------- *)

(* Two identical task sets must interleave identically: same per-CPU
   clocks, same quantum counts — byte-for-byte determinism is what makes
   an SMP failure replayable with a seed. *)
let run_toy () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let costs = Sim.Cost_model.default in
  let smp = Sim.Smp.create ~seed:42 ~cpus:3 ~clock ~costs ~stats () in
  for p = 0 to 5 do
    Sim.Smp.add_task smp ~cpu:(p mod 3) ~name:(Printf.sprintf "t%d" p)
      (fun i ->
        (* Uneven virtual work so the min-clock rule actually matters. *)
        Sim.Simclock.advance clock (float_of_int (((p + 1) * (i + 1)) mod 7));
        i < 9)
  done;
  Sim.Smp.run smp;
  ( Sim.Smp.wall_us smp,
    Sim.Smp.quanta smp,
    List.map (fun v -> (v.Sim.Smp.cv_cpu, v.Sim.Smp.cv_now_us, v.Sim.Smp.cv_quanta))
      (Sim.Smp.cpu_views smp) )

let test_scheduler_deterministic () =
  let a = run_toy () and b = run_toy () in
  let wall_a, quanta_a, cpus_a = a and wall_b, quanta_b, cpus_b = b in
  Alcotest.(check (float 0.0)) "same wall" wall_a wall_b;
  Alcotest.(check int) "same quanta" quanta_a quanta_b;
  Alcotest.(check int) "all 60 quanta ran" 60 quanta_a;
  List.iter2
    (fun (c1, now1, q1) (c2, now2, q2) ->
      Alcotest.(check int) "cpu" c1 c2;
      Alcotest.(check (float 0.0)) "clock" now1 now2;
      Alcotest.(check int) "quanta" q1 q2)
    cpus_a cpus_b

let test_scheduler_balances () =
  let _, _, cpus = run_toy () in
  (* Two tasks of 10 steps per CPU. *)
  List.iter
    (fun (_, _, q) -> Alcotest.(check int) "20 quanta per cpu" 20 q)
    cpus

(* -- the storm ----------------------------------------------------------- *)

let test_storm_4cpus_clean () =
  let r = Experiments.Smp.run ~quick:true ~cpus:4 ~seed:42 () in
  Alcotest.(check int) "both kernels ran" 2
    (List.length r.Experiments.Smp.sm_systems);
  List.iter
    (fun (s : Experiments.Smp.system_result) ->
      let p = s.Experiments.Smp.ss_par in
      Alcotest.(check (list string))
        (s.ss_system ^ ": no audit failures")
        [] p.Experiments.Smp.kr_audit_failures;
      Alcotest.(check bool)
        (s.ss_system ^ ": mid-storm audits ran")
        true
        (p.Experiments.Smp.kr_audits > 1);
      Alcotest.(check bool)
        (s.ss_system ^ ": contention was measured")
        true
        (p.Experiments.Smp.kr_total_wait_us > 0.0);
      Alcotest.(check bool)
        (s.ss_system ^ ": the storm scales")
        true
        (Experiments.Smp.speedup s >= 1.0);
      Alcotest.(check bool)
        (s.ss_system ^ ": fast path serves >50% of lookups")
        true
        (Experiments.Smp.fast_rate p > 0.5))
    r.Experiments.Smp.sm_systems;
  (* The paper's asymmetry, measured: the shared-anonymous storm piles
     write-mode waits on BSD VM's single shared object; UVM spreads the
     same faults over amaps, so its object class stays off the top. *)
  let top sys =
    let s =
      List.find
        (fun (s : Experiments.Smp.system_result) ->
          s.Experiments.Smp.ss_system = sys)
        r.Experiments.Smp.sm_systems
    in
    fst (Experiments.Smp.top_wait s.Experiments.Smp.ss_par)
  in
  Alcotest.(check string) "BSD VM's top waiter is the object class" "object"
    (top "BSD VM");
  Alcotest.(check bool) "UVM's is not" true (top "UVM" <> "object")

(* Past 4 CPUs the storm outgrows the profile's fixed machine: 32
   workers' private regions overflow the quick profile's swap, and 16
   per-CPU caches strand enough free frames that an allocation used to
   fail with frames still free.  Every CPU count the CLI accepts must
   finish with clean audits instead of an uncaught out-of-memory Segv. *)
let test_storm_16cpus_survives () =
  let r = Experiments.Smp.run ~quick:true ~cpus:16 ~seed:42 () in
  List.iter
    (fun (s : Experiments.Smp.system_result) ->
      List.iter
        (fun (run : Experiments.Smp.kernel_run) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s@%d: no audit failures" s.ss_system
               run.Experiments.Smp.kr_cpus)
            [] run.Experiments.Smp.kr_audit_failures)
        [ s.Experiments.Smp.ss_base; s.Experiments.Smp.ss_par ])
    r.Experiments.Smp.sm_systems

let test_storm_deterministic () =
  let wall sys_list =
    List.map
      (fun (s : Experiments.Smp.system_result) ->
        (s.Experiments.Smp.ss_system, s.Experiments.Smp.ss_par.kr_wall_us))
      sys_list
  in
  let a = Experiments.Smp.run ~quick:true ~cpus:2 ~seed:7 () in
  let b = Experiments.Smp.run ~quick:true ~cpus:2 ~seed:7 () in
  List.iter2
    (fun (s1, w1) (s2, w2) ->
      Alcotest.(check string) "system" s1 s2;
      Alcotest.(check (float 0.0)) (s1 ^ " wall reproduces") w1 w2)
    (wall a.Experiments.Smp.sm_systems)
    (wall b.Experiments.Smp.sm_systems)

let () =
  Alcotest.run "smp"
    [
      ( "caches",
        [
          Alcotest.test_case "drain returns pages to their color rings" `Quick
            test_drain_returns_to_color_queue;
          Alcotest.test_case "refill never digs into the reserve" `Quick
            test_refill_respects_reserve;
          Alcotest.test_case "cache stats flow" `Quick test_cache_stats_flow;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "deterministic interleaving" `Quick
            test_scheduler_deterministic;
          Alcotest.test_case "per-cpu quantum balance" `Quick
            test_scheduler_balances;
        ] );
      ( "storm",
        [
          Alcotest.test_case "4-cpu storm audits clean" `Quick
            test_storm_4cpus_clean;
          Alcotest.test_case "storm reproduces bit-for-bit" `Quick
            test_storm_deterministic;
          Alcotest.test_case "16-cpu storm survives" `Quick
            test_storm_16cpus_survives;
        ] );
    ]
