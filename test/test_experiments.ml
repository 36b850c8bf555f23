(* Integration tests over the experiment harness: every reproduced table
   and figure must show the paper's qualitative result (who wins, where
   the crossovers are).  The heavyweight figures run on reduced inputs in
   the bench harness; here we assert the directions on the real ones that
   are cheap, and the component claims on the others. *)

module Registry = Experiments.Registry

(* An experiment's JSON document for [r], as printed and parsed back. *)
let json_doc json r = Sim.Json.parse (Sim.Json.to_string (json r))

(* [doc] is an array with one element per result row. *)
let check_rows what doc nrows =
  Alcotest.(check int) (what ^ ": one JSON row per result row") nrows
    (List.length (Sim.Json.to_list doc))

let check_json_rows what json r nrows = check_rows what (json_doc json r) nrows

let test_table1_direction () =
  let rows = Experiments.Table1.run () in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  check_json_rows "table1" Experiments.Table1.json rows (List.length rows);
  List.iter
    (fun (label, bsd, uvm) ->
      Alcotest.(check bool) (label ^ ": BSD uses more entries") true (bsd > uvm))
    rows;
  (* The paper's headline numbers for UVM hold exactly. *)
  let _, _, uvm_cat = List.nth rows 0 in
  let _, _, uvm_od = List.nth rows 1 in
  Alcotest.(check int) "cat: 6 entries under UVM (paper)" 6 uvm_cat;
  Alcotest.(check int) "od: 12 entries under UVM (paper)" 12 uvm_od

let test_table2_direction () =
  let rows = Experiments.Table2.run () in
  check_json_rows "table2" Experiments.Table2.json rows (List.length rows);
  List.iter
    (fun (label, bsd, uvm) ->
      let r = float_of_int bsd /. float_of_int uvm in
      Alcotest.(check bool)
        (Printf.sprintf "%s: UVM faults ~half (ratio %.2f)" label r)
        true
        (r > 1.3 && r < 3.0))
    rows

let test_table3_direction () =
  let rows = Experiments.Table3.run () in
  Alcotest.(check int) "six cases" 6 (List.length rows);
  check_json_rows "table3" Experiments.Table3.json rows (List.length rows);
  List.iter
    (fun (label, bsd, uvm) ->
      Alcotest.(check bool) (label ^ ": UVM no slower") true (uvm <= bsd +. 1e-9))
    rows;
  (* Private read faults: BSD's needless shadow allocation makes the gap
     large (paper: 48 vs 22). *)
  let _, bsd_pr, uvm_pr =
    List.find (fun (l, _, _) -> l = "read/private file") rows
  in
  Alcotest.(check bool) "private read gap > 1.5x" true (bsd_pr > 1.5 *. uvm_pr)

let test_swapleak () =
  let steps = Experiments.Swapleak.run () in
  check_json_rows "swapleak" Experiments.Swapleak.json steps
    (List.length steps);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.Experiments.Swapleak.step_name ^ ": UVM never leaks")
        0 s.Experiments.Swapleak.uvm_leak)
    steps;
  let after_exit = List.nth steps 2 in
  Alcotest.(check bool) "BSD leaks after child exit" true
    (after_exit.Experiments.Swapleak.bsd_leak > 0)

let test_datamove () =
  let rows = Experiments.Datamove.run () in
  check_json_rows "datamove" Experiments.Datamove.json rows (List.length rows);
  let one = List.hd rows in
  let big = List.nth rows (List.length rows - 1) in
  let gain r =
    Experiments.Datamove.improvement r.Experiments.Datamove.copy_us
      r.Experiments.Datamove.loan_us
  in
  Alcotest.(check bool) "1 page: ~26% (paper)" true
    (gain one > 15.0 && gain one < 40.0);
  Alcotest.(check bool) "256 pages: ~78% (paper)" true
    (gain big > 65.0 && gain big < 90.0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "loan never slower than copy" true
        (r.Experiments.Datamove.loan_us <= r.Experiments.Datamove.copy_us))
    rows

let test_fig6_shape () =
  let r = Experiments.Fig6.run () in
  (* One object wraps the two series. *)
  let doc = json_doc Experiments.Fig6.json r in
  check_rows "fig6 touched"
    (Sim.Json.member "touched" doc)
    (List.length r.Experiments.Fig6.touched);
  check_rows "fig6 untouched"
    (Sim.Json.member "untouched" doc)
    (List.length r.Experiments.Fig6.untouched);
  (* Linear growth, BSD above UVM in the touched case. *)
  List.iter
    (fun (mb, bsd, uvm) ->
      if mb > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "touched %dMB: BSD slower" mb)
          true (bsd > uvm))
    r.Experiments.Fig6.touched;
  let _, bsd0, _ = List.hd r.Experiments.Fig6.touched in
  let _, bsd15, _ = List.nth r.Experiments.Fig6.touched 8 in
  Alcotest.(check bool) "grows with size" true (bsd15 > 5.0 *. bsd0)

(* Figures 2 and 5 at full scale run in the bench harness; here a reduced
   version checks the crossover positions. *)
let test_fig2_cliff_components () =
  (* Below the 100-object limit both systems stay off the disk in steady
     state; past it, BSD pays I/O.  Checked through the harness rows. *)
  let module F = Experiments.Fig2 in
  let rows = F.run () in
  check_json_rows "fig2" F.json rows (List.length rows);
  let below = List.filter (fun (n, _, _) -> n <= 100) rows in
  let above = List.filter (fun (n, _, _) -> n > 100) rows in
  List.iter
    (fun (n, bsd, _) ->
      Alcotest.(check bool) (Printf.sprintf "%d files: BSD fast" n) true (bsd < 0.1e6))
    below;
  List.iter
    (fun (n, bsd, uvm) ->
      Alcotest.(check bool) (Printf.sprintf "%d files: BSD cliff" n) true
        (bsd > 1e6 && bsd > 50.0 *. uvm))
    above;
  List.iter
    (fun (n, _, uvm) ->
      Alcotest.(check bool) (Printf.sprintf "%d files: UVM flat" n) true (uvm < 0.1e6))
    rows

let test_fig5_crossover () =
  let rows = Experiments.Fig5.run () in
  check_json_rows "fig5" Experiments.Fig5.json rows (List.length rows);
  List.iter
    (fun (mb, bsd, uvm) ->
      if mb <= 28 then
        Alcotest.(check bool)
          (Printf.sprintf "%dMB: both fast in RAM" mb)
          true
          (bsd < 1e6 && uvm < 1e6)
      else
        Alcotest.(check bool)
          (Printf.sprintf "%dMB: UVM pages out faster" mb)
          true (bsd > 2.0 *. uvm))
    rows

(* The ablations are judged through their registry entries, on the JSON
   document the bench and [--out] record. *)
let entry_rows name =
  match
    List.find (fun (Registry.Entry e) -> e.name = name) Registry.entries
  with
  | Registry.Entry e ->
      Sim.Json.to_list (json_doc e.json (e.run (Registry.params e.knobs)))

let num key row = Sim.Json.to_number (Sim.Json.member key row)

let rec falls = function
  | a :: (b :: _ as rest) -> a > b && falls rest
  | _ -> true

(* Section 6: bigger pageout clusters mean fewer, larger swap writes, and
   less time spent in them. *)
let test_ablation_pageout_cluster () =
  let rows = entry_rows "ablation_pageout_cluster" in
  let col key = List.map (num key) rows in
  let w = col "write_ios" in
  Alcotest.(check (list (float 0.))) "clusters swept"
    [ 1.; 2.; 4.; 8.; 16.; 32. ] (col "cluster");
  Alcotest.(check bool) "write I/Os fall as the cluster grows" true (falls w);
  Alcotest.(check bool) "time falls as the cluster grows" true
    (falls (col "time_us"));
  Alcotest.(check bool) "cluster 32 writes 16x fewer I/Os than cluster 1"
    true
    (List.hd w > 16. *. List.nth w 5)

(* Section 5.4: with no window every text page the trace touches faults;
   a wider window maps more resident neighbours per fault. *)
let test_ablation_fault_ahead () =
  let rows = entry_rows "ablation_fault_ahead" in
  let faults behind ahead =
    num "faults"
      (List.find
         (fun r -> num "behind" r = behind && num "ahead" r = ahead)
         rows)
  in
  let touched =
    List.sort_uniq compare
      (List.filter_map
         (fun (seg, page, _) ->
           if
             seg = Oslayer.Trace.Seg_text
             && page < Experiments.Ablation.Fault_ahead.text_pages
           then Some page
           else None)
         (Oslayer.Trace.command_trace Oslayer.Programs.cc))
  in
  Alcotest.(check (float 0.)) "0/0: one fault per touched text page"
    (float_of_int (List.length touched))
    (faults 0. 0.);
  Alcotest.(check bool) "1/2 takes fewer faults than 0/0" true
    (faults 1. 2. < faults 0. 0.);
  Alcotest.(check bool) "3/4 takes fewer faults than 1/2" true
    (faults 3. 4. < faults 1. 2.)

(* Every injected write error is retried; none without a fault plan; and
   clustering cuts the writes at every error rate. *)
let test_ablation_fault_rate () =
  let rows = entry_rows "ablation_fault_rate" in
  List.iter
    (fun r ->
      let what =
        Printf.sprintf "rate %g cluster %g" (num "write_error_rate" r)
          (num "cluster" r)
      in
      Alcotest.(check (float 0.)) (what ^ ": retries = injected")
        (num "injected" r) (num "retries" r);
      if num "write_error_rate" r = 0. then
        Alcotest.(check (float 0.)) (what ^ ": nothing injected") 0.
          (num "injected" r))
    rows;
  List.iter
    (fun rate ->
      let at_rate =
        List.filter (fun r -> num "write_error_rate" r = rate) rows
      in
      Alcotest.(check int) (Printf.sprintf "rate %g: three clusters" rate) 3
        (List.length at_rate);
      Alcotest.(check bool)
        (Printf.sprintf "rate %g: write I/Os fall as the cluster grows" rate)
        true
        (falls (List.map (num "write_ios") at_rate)))
    [ 0.0; 0.01; 0.05 ]

(* The sampler's watchdogs on the over-committed 4-CPU vmstat run: both
   kernels hog a lock class and starve a per-CPU cache; only BSD VM's
   pagedaemon pages out while the free pool stays under freemin. *)
let test_vmstat_watchdogs () =
  let fired =
    List.map
      (fun (src : Sim.Trace_export.source) ->
        ( src.label,
          List.sort_uniq compare
            (List.map
               (fun w -> w.Sim.Timeseries.w_rule)
               (Sim.Timeseries.warnings src.series)) ))
      (Experiments.Vmstat.run ~quick:true ~cpus:4 ())
  in
  Alcotest.(check (list (pair string (list string)))) "rules fired"
    [
      ("UVM", [ "cache_starved"; "lock_hog" ]);
      ("BSD VM", [ "cache_starved"; "lock_hog"; "pdaemon_thrash" ]);
    ]
    fired

(* Each subcommand of uvm_sim is a registry entry, next to [all] and
   [torture]: no two may share a name. *)
let test_registry_names_unique () =
  let names =
    "all" :: "torture"
    :: List.map (fun (Registry.Entry e) -> e.name) Registry.entries
  in
  Alcotest.(check (list string)) "no duplicates"
    (List.sort compare names)
    (List.sort_uniq compare names)

(* The bench may only set knobs its entry honours: the CLI would reject
   the same run. *)
let test_registry_bench_knobs () =
  List.iter
    (fun (Registry.Entry e) ->
      match e.bench with
      | Some Registry.Quick ->
          Alcotest.(check bool) (e.name ^ ": bench knob honoured") true
            e.knobs.quick
      | Some Defaults | None -> ())
    Registry.entries

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "bench knobs declared" `Quick
            test_registry_bench_knobs;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Slow test_table1_direction;
          Alcotest.test_case "table2" `Slow test_table2_direction;
          Alcotest.test_case "table3" `Slow test_table3_direction;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig2 cliff" `Slow test_fig2_cliff_components;
          Alcotest.test_case "fig5 crossover" `Slow test_fig5_crossover;
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
        ] );
      ( "mechanisms",
        [
          Alcotest.test_case "swap leak" `Quick test_swapleak;
          Alcotest.test_case "data movement" `Quick test_datamove;
          Alcotest.test_case "vmstat watchdogs" `Quick test_vmstat_watchdogs;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "pageout cluster" `Slow
            test_ablation_pageout_cluster;
          Alcotest.test_case "fault-ahead window" `Quick
            test_ablation_fault_ahead;
          Alcotest.test_case "write-error rate" `Slow test_ablation_fault_rate;
        ] );
    ]
