(* The benchmark harness.

   Part 1 runs every entry of [Experiments.Registry] that declares bench
   knobs: the tables and figures of the paper's evaluation (simulated
   time / counts — the reproduction itself) and the studies built on
   them.  Three ablations of UVM's tunables follow.  BENCH_results.json
   (schema uvm-bench/2) keeps each one's JSON document under
   experiments.<name>; for an entry, that is the document
   [uvm_sim <name> --out] writes.

   Part 2 runs Bechamel wall-clock micro-benchmarks of the simulator: one
   Test.make per paper artifact, each exercising the code path that the
   corresponding table or figure stresses, under both VM systems where
   applicable.  These measure the OCaml implementation, not the simulated
   machine — useful for tracking performance of the library itself.

   Run with: dune exec bench/main.exe *)

open Vmiface.Vmtypes

module R = Experiments.Report

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's evaluation.                                     *)

(* An ablation's document: one object per swept setting. *)
let rows fields = Sim.Json.list (fun x -> Sim.Json.Object (fields x))

let ablation_pageout_cluster () =
  R.title
    "Ablation: pageout cluster size (48MB allocation, 32MB RAM; cluster=1 is BSD-style)";
  Printf.printf "%-10s %14s %12s\n" "cluster" "time" "write I/Os";
  List.map
    (fun cluster ->
      let mach =
        Vmiface.Machine.boot ~config:(Vmiface.Machine.config_mb ~ram_mb:32 ()) ()
      in
      let usys = Uvm.State.create ~pageout_cluster:cluster mach in
      Uvm.Pdaemon.install usys;
      Uvm.Vnode_pager.install_recycle_hook usys;
      let pmap = Pmap.create (Uvm.State.pmap_ctx usys) in
      let map = Uvm.Map.create usys ~pmap ~lo:16 ~hi:(1 lsl 20) ~kernel:false in
      let npages = 48 * 256 in
      let _e =
        Uvm.Map.insert map ~spage:16 ~npages ~obj:None ~objoff:0
          ~prot:Pmap.Prot.rw ~maxprot:Pmap.Prot.rwx ~inh:Inh_copy
          ~advice:Adv_normal ~cow:true ~needs_copy:true ~merge:false
      in
      let t0 = Sim.Simclock.now mach.Vmiface.Machine.clock in
      for v = 16 to 16 + npages - 1 do
        (match Uvm.Fault.fault map ~vpn:v ~access:Write ~wire:false with
        | Ok () -> ()
        | Error _ -> assert false);
        Pmap.mark_access pmap ~vpn:v ~write:true
      done;
      let dt = Sim.Simclock.now mach.Vmiface.Machine.clock -. t0 in
      let writes = mach.Vmiface.Machine.stats.Sim.Stats.disk_write_ops in
      Printf.printf "%-10d %12.3f s %12d\n" cluster (dt /. 1e6) writes;
      (cluster, dt, writes))
    [ 1; 2; 4; 8; 16; 32 ]
  |> rows (fun (cluster, dt, writes) ->
         [ ("cluster", Int cluster); ("time_us", Sim.Json.float dt);
           ("write_ios", Int writes) ])

(* Ablation: the fault-ahead window (Table 2's mechanism), swept from
   disabled to double the paper's default, on the cc trace. *)
let ablation_fault_ahead () =
  R.title
    "Ablation: fault-ahead window (behind/ahead) on the cc trace (paper default 3/4)";
  Printf.printf "%-12s %10s\n" "window" "faults";
  List.map
    (fun (behind, ahead) ->
      let mach = Vmiface.Machine.boot () in
      let usys = Uvm.State.create ~fault_behind:behind ~fault_ahead:ahead mach in
      Uvm.Pdaemon.install usys;
      Uvm.Vnode_pager.install_recycle_hook usys;
      (* The facade fixes the tunables at boot, so drive the fault routine
         through a raw map built on a hand-tuned Uvm.State, replaying the
         cc trace's text accesses. *)
      let pmap = Pmap.create (Uvm.State.pmap_ctx usys) in
      let map = Uvm.Map.create usys ~pmap ~lo:16 ~hi:(1 lsl 20) ~kernel:false in
      let vfs = Uvm.State.vfs usys in
      let vn = Vfs.create_file vfs ~name:"/abl/text" ~size:(640 * 4096) in
      let obj = Uvm.Vnode_pager.attach usys vn in
      let _e =
        Uvm.Map.insert map ~spage:16 ~npages:640 ~obj:(Some obj) ~objoff:0
          ~prot:Pmap.Prot.rx ~maxprot:Pmap.Prot.rwx ~inh:Inh_copy
          ~advice:Adv_normal ~cow:true ~needs_copy:true ~merge:false
      in
      (* Replay the cc text-sweep access order. *)
      let trace = Oslayer.Trace.command_trace Oslayer.Programs.cc in
      let f0 = mach.Vmiface.Machine.stats.Sim.Stats.faults in
      List.iter
        (fun (seg, page, _) ->
          if seg = Oslayer.Trace.Seg_text && page < 640 then
            match Pmap.lookup pmap ~vpn:(16 + page) with
            | Some _ -> ()
            | None -> (
                match Uvm.Fault.fault map ~vpn:(16 + page) ~access:Read ~wire:false with
                | Ok () -> ()
                | Error _ -> assert false))
        trace;
      let faults = mach.Vmiface.Machine.stats.Sim.Stats.faults - f0 in
      Printf.printf "%d/%-10d %10d\n" behind ahead faults;
      (behind, ahead, faults))
    [ (0, 0); (1, 2); (3, 4); (6, 8) ]
  |> rows (fun (behind, ahead, faults) ->
         [ ("behind", Int behind); ("ahead", Int ahead); ("faults", Int faults) ])

(* Ablation: fault-rate sweep × pageout clustering.  At a fixed
   per-operation write-error rate, clustering is also an exposure
   reducer: fewer, larger writes meet fewer errors and so need fewer
   retries for the same workload. *)
let ablation_fault_rate () =
  R.title
    "Ablation: write-error rate x pageout clustering (24MB allocation, 16MB RAM)";
  Printf.printf "%-10s %-10s %12s %10s %10s %10s\n" "werr" "cluster" "time"
    "writes" "injected" "retries";
  List.concat_map
    (fun rate ->
      List.map
        (fun cluster ->
          let config =
            {
              (Vmiface.Machine.config_mb ~ram_mb:16 ~swap_mb:64 ()) with
              fault_plan =
                Some
                  (fun () ->
                    Sim.Fault_plan.create ~write_error_rate:rate
                      ~rate_severity:Sim.Fault_plan.Transient ());
            }
          in
          let mach = Vmiface.Machine.boot ~config () in
          let usys = Uvm.State.create ~pageout_cluster:cluster mach in
          Uvm.Pdaemon.install usys;
          Uvm.Vnode_pager.install_recycle_hook usys;
          let pmap = Pmap.create (Uvm.State.pmap_ctx usys) in
          let map = Uvm.Map.create usys ~pmap ~lo:16 ~hi:(1 lsl 20) ~kernel:false in
          let npages = 24 * 256 in
          let _e =
            Uvm.Map.insert map ~spage:16 ~npages ~obj:None ~objoff:0
              ~prot:Pmap.Prot.rw ~maxprot:Pmap.Prot.rwx ~inh:Inh_copy
              ~advice:Adv_normal ~cow:true ~needs_copy:true ~merge:false
          in
          let clock = mach.Vmiface.Machine.clock in
          let t0 = Sim.Simclock.now clock in
          for v = 16 to 16 + npages - 1 do
            (match Uvm.Fault.fault map ~vpn:v ~access:Write ~wire:false with
            | Ok () -> ()
            | Error _ -> assert false);
            Pmap.mark_access pmap ~vpn:v ~write:true
          done;
          let dt = Sim.Simclock.now clock -. t0 in
          let st = mach.Vmiface.Machine.stats in
          Printf.printf "%-10.3f %-10d %10.3f s %10d %10d %10d\n" rate cluster
            (dt /. 1e6) st.Sim.Stats.disk_write_ops
            st.Sim.Stats.io_errors_injected st.Sim.Stats.pageout_retries;
          ( rate,
            cluster,
            dt,
            st.Sim.Stats.disk_write_ops,
            st.Sim.Stats.io_errors_injected,
            st.Sim.Stats.pageout_retries ))
        [ 1; 8; 16 ])
    [ 0.0; 0.01; 0.05 ]
  |> rows (fun (rate, cluster, dt, writes, injected, retries) ->
         [ ("write_error_rate", Sim.Json.float rate); ("cluster", Int cluster);
           ("time_us", Sim.Json.float dt); ("write_ios", Int writes);
           ("injected", Int injected); ("retries", Int retries) ])

(* Every registry entry the bench runs, at its bench knobs, then the
   ablations: each printed, and each one's JSON document keyed by its name
   for BENCH_results.json. *)
let reproduce_paper () =
  let registry =
    List.filter_map
      (fun (Experiments.Registry.Entry e) ->
        Option.map
          (fun b ->
            let quick = b = Experiments.Registry.Quick in
            let r = e.run (Experiments.Registry.params ~quick e.knobs) in
            e.print r;
            (e.name, e.json r))
          e.bench)
      Experiments.Registry.entries
  in
  let ab_cluster = ablation_pageout_cluster () in
  let ab_ahead = ablation_fault_ahead () in
  let ab_rate = ablation_fault_rate () in
  registry
  @ [
      ("ablation_pageout_cluster", ab_cluster);
      ("ablation_fault_ahead", ab_ahead);
      ("ablation_fault_rate", ab_rate);
    ]

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel wall-clock micro-benchmarks of the simulator.      *)

module Setup (V : Vmiface.Vm_sig.VM_SYS) = struct
  let sys = V.boot ()
  let vm = V.new_vmspace sys

  let file =
    Vfs.create_file (V.machine sys).Vmiface.Machine.vfs
      ~name:("/bench/" ^ V.name) ~size:(64 * 4096)

  (* Table 3's unit: one map-fault-unmap cycle. *)
  let map_fault_unmap () =
    let vpn =
      V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Private (File (file, 0))
    in
    V.touch sys vm ~vpn Write;
    V.munmap sys vm ~vpn ~npages:1

  (* Figure 6's unit: fork + COW touch + exit over a 1MB space. *)
  let heap =
    let vpn = V.mmap sys vm ~npages:256 ~prot:Pmap.Prot.rw ~share:Private Zero in
    V.access_range sys vm ~vpn ~npages:256 Write;
    vpn

  let fork_cycle () =
    let child = V.fork sys vm in
    V.touch sys child ~vpn:heap Write;
    V.destroy_vmspace sys child

  (* Figure 2's unit: serve one mmapped file. *)
  let serve_file () =
    let vpn =
      V.mmap sys vm ~npages:16 ~prot:Pmap.Prot.read ~share:Shared (File (file, 0))
    in
    V.access_range sys vm ~vpn ~npages:16 Read;
    V.munmap sys vm ~vpn ~npages:16

  (* Table 2's unit: spawn a process and replay the "ls /" trace. *)
  module P = Oslayer.Procsim.Make (V)

  let trace = Oslayer.Trace.command_trace Oslayer.Programs.ls

  let run_ls () =
    let proc = P.spawn sys Oslayer.Programs.ls in
    P.replay sys proc trace;
    P.exit_proc sys proc
end

module US = Setup (Uvm.Sys)
module BS = Setup (Bsdvm.Sys)

(* Figure 5's unit: fill memory past RAM and force a paging cycle. *)
let paging_cycle (module V : Vmiface.Vm_sig.VM_SYS) =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 128; swap_pages = 4096 }
  in
  let sys = V.boot ~config () in
  let vm = V.new_vmspace sys in
  let vpn = V.mmap sys vm ~npages:256 ~prot:Pmap.Prot.rw ~share:Private Zero in
  fun () -> V.access_range sys vm ~vpn ~npages:256 Write

let uvm_paging = paging_cycle (module Uvm.Sys)
let bsd_paging = paging_cycle (module Bsdvm.Sys)

(* Section 7's units: loan vs copy of 64 pages. *)
let loan_sys, loan_vm, loan_vpn =
  let sys = Uvm.Sys.boot () in
  let vm = Uvm.Sys.new_vmspace sys in
  let vpn = Uvm.Sys.mmap sys vm ~npages:64 ~prot:Pmap.Prot.rw ~share:Private Zero in
  Uvm.Sys.access_range sys vm ~vpn ~npages:64 Write;
  (sys, vm, vpn)

let loan_64 () =
  let loan = Uvm.loan_to_kernel loan_vm ~vpn:loan_vpn ~npages:64 in
  Uvm.loan_finish loan_sys loan

let copy_64 () =
  let kpages = Uvm.copy_to_kernel loan_sys loan_vm ~vpn:loan_vpn ~npages:64 in
  Uvm.copy_finish loan_sys kpages

let bechamel_tests =
  let open Bechamel in
  Test.make_grouped ~name:"uvm-repro"
    [
      Test.make_grouped ~name:"table3.map-fault-unmap"
        [
          Test.make ~name:"uvm" (Staged.stage US.map_fault_unmap);
          Test.make ~name:"bsd" (Staged.stage BS.map_fault_unmap);
        ];
      Test.make_grouped ~name:"table2.ls-trace"
        [
          Test.make ~name:"uvm" (Staged.stage US.run_ls);
          Test.make ~name:"bsd" (Staged.stage BS.run_ls);
        ];
      Test.make_grouped ~name:"table1.spawn-exit"
        [
          Test.make ~name:"uvm"
            (Staged.stage (fun () ->
                 US.P.exit_proc US.sys (US.P.spawn US.sys Oslayer.Programs.cat)));
          Test.make ~name:"bsd"
            (Staged.stage (fun () ->
                 BS.P.exit_proc BS.sys (BS.P.spawn BS.sys Oslayer.Programs.cat)));
        ];
      Test.make_grouped ~name:"fig2.serve-file"
        [
          Test.make ~name:"uvm" (Staged.stage US.serve_file);
          Test.make ~name:"bsd" (Staged.stage BS.serve_file);
        ];
      Test.make_grouped ~name:"fig5.paging-cycle"
        [
          Test.make ~name:"uvm" (Staged.stage uvm_paging);
          Test.make ~name:"bsd" (Staged.stage bsd_paging);
        ];
      Test.make_grouped ~name:"fig6.fork-cycle"
        [
          Test.make ~name:"uvm" (Staged.stage US.fork_cycle);
          Test.make ~name:"bsd" (Staged.stage BS.fork_cycle);
        ];
      Test.make_grouped ~name:"sec7.datamove-64p"
        [
          Test.make ~name:"loan" (Staged.stage loan_64);
          Test.make ~name:"copy" (Staged.stage copy_64);
        ];
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  R.title
    "Bechamel: wall-clock cost of the simulator itself (ns per run)";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] bechamel_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.filter_map
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] ->
          Printf.printf "%-44s %12.0f ns/run\n" name est;
          Some (name, est)
      | Some _ | None ->
          Printf.printf "%-44s %12s\n" name "n/a";
          None)
    (List.sort compare rows)

let results_file = "BENCH_results.json"

let write_results ~experiments ~micro =
  let micro = List.map (fun (name, est) -> (name, Sim.Json.float est)) micro in
  Sim.Json.to_file results_file
    (Object
       [ ("schema", String "uvm-bench/2"); ("experiments", Object experiments);
         ("microbench_ns_per_run", Object micro) ])

let () =
  let experiments = reproduce_paper () in
  let micro = run_bechamel () in
  write_results ~experiments ~micro;
  print_newline ();
  Printf.printf
    "bench: all tables, figures and micro-benchmarks completed; results \
     written to %s.\n"
    results_file
