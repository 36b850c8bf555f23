(* The benchmark harness: a fold over [Experiments.Registry.entries].

   Every entry that says how the bench runs it (at its defaults or with
   [quick]) is run, printed, and its JSON document kept under
   experiments.<name> in BENCH_results.json (schema uvm-bench/2): the
   same document [uvm_sim <name> --out] writes.  Those are the paper's
   tables and figures, the studies built on them and the ablations of
   UVM's tunables, all in simulated time and counts.  The simulator's own
   wall-clock and allocation cost is measured by simbench/.

   Run with: dune exec bench/main.exe *)

module Registry = Experiments.Registry

let results_file = "BENCH_results.json"

let () =
  let experiments =
    List.filter_map
      (fun (Registry.Entry e) ->
        Option.map
          (fun b ->
            let quick = b = Registry.Quick in
            let r = e.run (Registry.params ~quick e.knobs) in
            e.print r;
            (e.name, e.json r))
          e.bench)
      Registry.entries
  in
  Sim.Json.to_file results_file
    (Object
       [ ("schema", String "uvm-bench/2");
         ("experiments", Object experiments) ]);
  print_newline ();
  Printf.printf "bench: every benched entry completed; results written to %s.\n"
    results_file
