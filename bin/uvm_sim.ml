(** uvm_sim — reproduce the tables and figures of "The UVM Virtual Memory
    System" (Cranor & Parulkar, USENIX 1999) on the simulated substrate.

    Each subcommand regenerates one paper artifact, comparing UVM with the
    BSD VM baseline on an identical simulated machine.

    Every experiment can be run on failing hardware: the fault-injection
    options install a default fault plan that every machine booted by the
    experiment inherits (a fresh, identically-seeded plan per boot, so
    UVM and BSD VM face the same error sequence). *)

open Cmdliner

let experiments =
  [
    ("table1", "Table 1: allocated map entries", Experiments.Table1.print);
    ("table2", "Table 2: page fault counts", Experiments.Table2.print);
    ("table3", "Table 3: single-page map-fault-unmap time", Experiments.Table3.print);
    ("fig2", "Figure 2: object cache effect on file access", Experiments.Fig2.print);
    ("fig5", "Figure 5: anonymous memory allocation time", Experiments.Fig5.print);
    ("fig6", "Figure 6: fork+wait overhead", Experiments.Fig6.print);
    ("datamove", "Section 7: loanout/transfer/mexp vs copy", Experiments.Datamove.print);
    ("swapleak", "Section 5.3: swap leak demonstration", Experiments.Swapleak.print);
  ]

(* -- fault-injection options ----------------------------------------- *)

let read_error_rate =
  let doc = "Fail each disk read with probability $(docv) (transient unless \
             $(b,--permanent))." in
  Arg.(value & opt float 0.0 & info [ "read-error-rate" ] ~docv:"RATE" ~doc)

let write_error_rate =
  let doc = "Fail each disk write with probability $(docv) (transient unless \
             $(b,--permanent))." in
  Arg.(value & opt float 0.0 & info [ "write-error-rate" ] ~docv:"RATE" ~doc)

let permanent =
  let doc = "Rate-injected errors are permanent (bad media) instead of \
             transient." in
  Arg.(value & flag & info [ "permanent" ] ~doc)

let bad_slots =
  let doc = "Treat swap slot $(docv) as bad media: every write to it fails \
             permanently.  Repeatable." in
  Arg.(value & opt_all int [] & info [ "bad-slot" ] ~docv:"SLOT" ~doc)

let fault_seed =
  let doc = "Seed for the fault plan's random number generator." in
  Arg.(value & opt int 0xFA17 & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let install_faults read_rate write_rate permanent bad fault_seed =
  let check_rate name r =
    if r < 0.0 || r > 1.0 then begin
      Printf.eprintf "uvm_sim: --%s must be in [0,1] (got %g)\n" name r;
      exit 2
    end
  in
  check_rate "read-error-rate" read_rate;
  check_rate "write-error-rate" write_rate;
  List.iter
    (fun slot ->
      if slot < 1 then begin
        Printf.eprintf "uvm_sim: --bad-slot must be >= 1 (got %d)\n" slot;
        exit 2
      end)
    bad;
  if read_rate > 0.0 || write_rate > 0.0 || bad <> [] then
    Vmiface.Machine.set_default_fault_plan
      (Some
         (fun () ->
           let plan =
             Sim.Fault_plan.create ~seed:fault_seed ~read_error_rate:read_rate
               ~write_error_rate:write_rate
               ~rate_severity:
                 (if permanent then Sim.Fault_plan.Permanent
                  else Sim.Fault_plan.Transient)
               ()
           in
           List.iter
             (fun slot ->
               Sim.Fault_plan.fail_op plan ~slot Sim.Fault_plan.Write
                 Sim.Fault_plan.Permanent)
             bad;
           plan))

(* -- observability options --------------------------------------------- *)

let trace_out =
  let doc = "Write a Chrome trace-event JSON file of every traced machine \
             to $(docv) (open in Perfetto or chrome://tracing): every \
             span, one track per subsystem.  Implies span collection." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_buf =
  let doc = "Span ring capacity: each traced machine keeps its most \
             recent $(docv) finished spans (latency histograms cover every \
             span regardless)." in
  Arg.(value & opt int 65536 & info [ "trace-buf" ] ~docv:"N" ~doc)

let stats_flag =
  let doc = "After the experiment, print the full non-zero counter table \
             and latency percentiles of every system it booted." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_out =
  let doc = "Write a JSON snapshot (schema uvm-sim-stats/2: counters and \
             one latency histogram per span name) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)

let report_out =
  let doc = "Write the comparative efficacy report \
             (schema uvm-sim-report/1: fault-ahead hit/waste per madvise \
             mode, pageout cluster distributions, residency percentiles, \
             map-entry census) of every system the experiment booted to \
             $(docv)." in
  Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)

let spans_out =
  let doc = "Write the causal span trees (schema uvm-sim-spans/1: every \
             finished span with its trace/parent ids, plus any still-open \
             stack) of every traced machine to $(docv).  Implies span \
             collection." in
  Arg.(value & opt (some string) None & info [ "spans-out" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc = "Write the vmstat-style time-series (schema uvm-sim-metrics/1: \
             periodic gauge/counter samples and watchdog warnings) of every \
             traced machine to $(docv).  Implies span collection." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let lockstat_out =
  let doc = "Write the lock observatory (schema uvm-sim-lockstat/2: \
             per-class hold-time histograms split by read/write mode and \
             by holding subsystem, and the observed lock-order graph with \
             any cycles) of every traced machine to $(docv).  Implies span \
             collection." in
  Arg.(value & opt (some string) None
       & info [ "lockstat-out" ] ~docv:"FILE" ~doc)

let with_file name f =
  let oc = open_out name in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let run_with_observability trace_out trace_buf stats stats_out report_out
    spans_out metrics_out lockstat_out f =
  if trace_buf < 1 then begin
    Printf.eprintf "uvm_sim: --trace-buf must be >= 1 (got %d)\n" trace_buf;
    exit 2
  end;
  let observing =
    trace_out <> None || stats_out <> None || report_out <> None
    || spans_out <> None || metrics_out <> None || lockstat_out <> None
    || stats
  in
  if observing then Vmiface.Machine.set_default_trace (Some trace_buf);
  f ();
  if observing then begin
    let sources = Vmiface.Machine.traced () in
    if stats then Sim.Trace_export.print_stats sources;
    (match trace_out with
    | Some file ->
        let buf = Buffer.create 65536 in
        Sim.Trace_export.chrome_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf);
        Printf.printf "trace written to %s (%d spans)\n" file
          (List.fold_left
             (fun n s ->
               n + List.length (Sim.Span.spans s.Sim.Trace_export.spans))
             0 sources)
    | None -> ());
    (match stats_out with
    | Some file ->
        let buf = Buffer.create 4096 in
        Sim.Trace_export.snapshot_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf)
    | None -> ());
    (match report_out with
    | Some file ->
        let buf = Buffer.create 8192 in
        Sim.Trace_export.report_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf)
    | None -> ());
    (match spans_out with
    | Some file ->
        let buf = Buffer.create 16384 in
        Sim.Trace_export.spans_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf)
    | None -> ());
    (match metrics_out with
    | Some file ->
        let buf = Buffer.create 16384 in
        Sim.Trace_export.metrics_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf)
    | None -> ());
    (match lockstat_out with
    | Some file ->
        let buf = Buffer.create 16384 in
        Sim.Trace_export.lockstat_json buf sources;
        with_file file (fun oc -> Buffer.output_buffer oc buf)
    | None -> ());
    Vmiface.Machine.reset_traced ()
  end

let with_faults f =
  Term.(
    const (fun rr wr perm bad seed tout tbuf st stout rout spout mout lout () ->
        install_faults rr wr perm bad seed;
        run_with_observability tout tbuf st stout rout spout mout lout f)
    $ read_error_rate $ write_error_rate $ permanent $ bad_slots $ fault_seed
    $ trace_out $ trace_buf $ stats_flag $ stats_out $ report_out $ spans_out
    $ metrics_out $ lockstat_out $ const ())

let write_lockstat file sources =
  let buf = Buffer.create 16384 in
  Sim.Trace_export.lockstat_json buf sources;
  with_file file (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "lockstat written to %s\n" file

(* Serve and soak manage their own runs; this wraps them with just the
   lock-observatory export (machines boot traced while the flag is set,
   and the registry of every traced machine is written after). *)
let with_lockstat lockstat_out f =
  (match lockstat_out with
  | Some _ -> Vmiface.Machine.set_default_trace (Some 65536)
  | None -> ());
  let r = f () in
  (match lockstat_out with
  | Some file ->
      write_lockstat file (Vmiface.Machine.traced ());
      Vmiface.Machine.reset_traced ()
  | None -> ());
  r

(* -- torture ----------------------------------------------------------- *)

(* One seed's run, rendered to the text the command prints for it, so a
   seed range prints exactly what each single-seed run would. *)
let torture_report (cfg : Oslayer.Torture.cfg) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "torture: seed=%d ops=%d audit-every=%d faults=%s ram=%d swap=%d \
     tiers=%s\n"
    cfg.seed cfg.nops cfg.audit_every
    (if cfg.faults then "on" else "off")
    cfg.ram_pages cfg.swap_pages
    (if cfg.tiers then "fast+slow" else "single");
  let r = Oslayer.Torture.run cfg in
  (match r.Oslayer.Torture.r_bug with
  | None ->
      Printf.bprintf buf
        "torture: OK — %d ops, all audits clean, UVM and BSD VM agree\n"
        (List.length r.Oslayer.Torture.r_trace)
  | Some bug -> (
      Printf.bprintf buf "torture: FAILED\n  %s\n"
        (Oslayer.Torture.string_of_bug bug);
      (match r.Oslayer.Torture.r_minimal with
      | Some ops ->
          Printf.bprintf buf "  minimal repro (%d ops):\n" (List.length ops);
          List.iter
            (fun (i, op) ->
              Printf.bprintf buf "    [%d] %s\n" i
                (Oslayer.Torture.op_to_string op))
            ops
      | None -> ());
      match r.Oslayer.Torture.r_artifacts with
      | Some dir -> Printf.bprintf buf "  artifacts written to %s/\n" dir
      | None -> ()));
  (Buffer.contents buf, r.Oslayer.Torture.r_bug <> None)

(* Run seeds [lo..hi] on the domain pool and print each seed's report in
   seed order.  Every machine a worker boots is traced (torture configs
   carry a span ring); the worker hands its sources back only when the
   lock-observatory export wants them.  True if any seed failed. *)
let run_torture (lo, hi) cfg_of_seed lockstat_out =
  let seeds = List.init (hi - lo + 1) (fun i -> lo + i) in
  let one seed =
    let out, failed = torture_report (cfg_of_seed seed) in
    let sources =
      if lockstat_out = None then [] else Vmiface.Machine.traced ()
    in
    Vmiface.Machine.reset_traced ();
    (seed, out, failed, sources)
  in
  let results = Sim.Domain_pool.map one seeds in
  List.iter (fun (_, out, _, _) -> print_string out) results;
  let failed =
    List.filter_map (fun (seed, _, f, _) -> if f then Some seed else None)
      results
  in
  if hi > lo then
    Printf.printf "torture: seeds %d-%d: %d clean, %d failed%s\n" lo hi
      (List.length seeds - List.length failed)
      (List.length failed)
      (match failed with
      | [] -> ""
      | l -> " (" ^ String.concat " " (List.map string_of_int l) ^ ")");
  (match lockstat_out with
  | Some file ->
      write_lockstat file (List.concat_map (fun (_, _, _, s) -> s) results)
  | None -> ());
  failed <> []

(* "N" or an inclusive range "A-B". *)
let seed_range =
  let parse s =
    let err =
      Error (`Msg (Printf.sprintf "invalid seed %S (expected N or A-B)" s))
    in
    match int_of_string_opt s with
    | Some n -> Ok (n, n)
    | None -> (
        match List.map int_of_string_opt (String.split_on_char '-' s) with
        | [ Some a; Some b ] when a <= b -> Ok (a, b)
        | _ -> err)
  in
  let print ppf (a, b) =
    if a = b then Format.fprintf ppf "%d" a else Format.fprintf ppf "%d-%d" a b
  in
  Arg.conv (parse, print)

let torture_cmd =
  let seed =
    Arg.(value & opt seed_range (42, 42) & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the op generator and both machines, or an \
                 inclusive range $(i,A-B): the seeds then run in parallel \
                 on $(b,Domain.recommended_domain_count) domains and \
                 report in seed order, each exactly as its single-seed \
                 run would.  Exits 1 if any seed fails.")
  in
  let ops =
    Arg.(value & opt int 20000 & info [ "ops" ] ~docv:"N"
           ~doc:"Number of operations to generate.")
  in
  let audit_every =
    Arg.(value & opt int 100 & info [ "audit-every" ] ~docv:"K"
           ~doc:"Run both kernels' invariant auditors every $(docv) ops.")
  in
  let faults =
    Arg.(value & flag & info [ "faults" ]
           ~doc:"Inject transient disk I/O errors (rate 0.005). Outcome \
                 comparison is disabled; the invariant audits remain the \
                 oracle.")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ]
           ~doc:"On failure, delta-debug the trace to a minimal failing \
                 sequence (replays the run many times).")
  in
  let artifact_dir =
    Arg.(value & opt string "artifacts/torture" & info [ "artifact-dir" ]
           ~docv:"DIR"
           ~doc:"Directory for crash artifacts (op trace, failure, span \
                 ring, stats); each failing seed writes to \
                 $(docv)/seed-N/.")
  in
  let corrupt =
    Arg.(value & opt (some string) None & info [ "corrupt" ] ~docv:"KIND"
           ~doc:"Deliberately corrupt kernel state mid-run to exercise the \
                 auditor: leak-swap-slot, overref-anon, queue-double-insert, \
                 leak-loan or leak-swapcache.")
  in
  let corrupt_at =
    Arg.(value & opt int 0 & info [ "corrupt-at" ] ~docv:"N"
           ~doc:"Apply the corruption at op index $(docv).")
  in
  let ram_pages =
    Arg.(value & opt int 256 & info [ "ram-pages" ] ~docv:"N"
           ~doc:"Simulated RAM size in pages (small forces paging).")
  in
  let swap_pages =
    Arg.(value & opt int 2048 & info [ "swap-pages" ] ~docv:"N"
           ~doc:"Simulated swap size in slots.")
  in
  let tiers =
    Arg.(value & flag & info [ "tiers" ]
           ~doc:"Boot both kernels on a fast+slow swap-tier pair (same \
                 total slot budget) so the audits cover cross-tier \
                 accounting and the swapcache.")
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Differential torture test: one seeded op sequence against both \
             VM systems with periodic invariant audits")
    Term.(
      const (fun seeds ops audit_every faults shrink artifact_dir corrupt
                 corrupt_at ram_pages swap_pages tiers lout ->
          let corrupt =
            match corrupt with
            | None -> None
            | Some name -> (
                match Oslayer.Torture.corruption_of_string name with
                | Some c -> Some (corrupt_at, c)
                | None ->
                    Printf.eprintf
                      "uvm_sim: unknown --corrupt kind %S (expected \
                       leak-swap-slot, overref-anon, queue-double-insert, \
                       leak-loan or leak-swapcache)\n"
                      name;
                    Stdlib.exit 2)
          in
          let cfg_of_seed seed =
            {
              Oslayer.Torture.default_cfg with
              seed;
              nops = ops;
              audit_every;
              faults;
              shrink;
              artifact_dir = Some artifact_dir;
              corrupt;
              ram_pages;
              swap_pages;
              tiers;
            }
          in
          if run_torture seeds cfg_of_seed lout then Stdlib.exit 1)
      $ seed $ ops $ audit_every $ faults $ shrink $ artifact_dir $ corrupt
      $ corrupt_at $ ram_pages $ swap_pages $ tiers $ lockstat_out)

(* -- report ------------------------------------------------------------ *)

let run_report quick out =
  let sources = Experiments.Effreport.run ~quick () in
  Sim.Trace_export.print_report sources;
  match out with
  | Some file ->
      let buf = Buffer.create 8192 in
      Sim.Trace_export.report_json buf sources;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "report written to %s\n" file
  | None -> ()

let report_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Quarter-size workload (CI smoke test).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-report/1 JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Comparative efficacy report: the page-lifecycle ledger's \
             derived analytics (fault-ahead hit/waste per madvise mode, \
             pageout cluster size/contiguity, swap reassignment distances, \
             residency and inter-fault histograms, map-entry census) for \
             UVM and BSD VM over one mixed paging workload")
    Term.(
      const (fun rr wr perm bad seed quick out ->
          install_faults rr wr perm bad seed;
          run_report quick out)
      $ read_error_rate $ write_error_rate $ permanent $ bad_slots
      $ fault_seed $ quick $ out)

(* -- serve ------------------------------------------------------------- *)

let run_serve quick out =
  let rows = Experiments.Serve.run ~quick () in
  Experiments.Serve.print_result rows;
  match out with
  | Some file ->
      let buf = Buffer.create 4096 in
      Experiments.Serve.json buf rows;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "serve results written to %s\n" file
  | None -> ()

let serve_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Smaller client count and payload sweep (CI smoke test).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-serve/1 JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Section 7 end-to-end: N clients request payloads from a server \
             under memory pressure, once per IPC policy (copy, page loanout, \
             map-entry passing) on both VM systems, reporting throughput and \
             round-trip latency percentiles")
    Term.(
      const (fun rr wr perm bad seed quick out lout ->
          install_faults rr wr perm bad seed;
          with_lockstat lout (fun () -> run_serve quick out))
      $ read_error_rate $ write_error_rate $ permanent $ bad_slots
      $ fault_seed $ quick $ out $ lockstat_out)

(* -- vmstat ------------------------------------------------------------ *)

let run_vmstat quick cpus metrics_out spans_out =
  if cpus < 1 then begin
    Printf.eprintf "uvm_sim: --cpus must be >= 1 (got %d)\n" cpus;
    exit 2
  end;
  (* vmstat IS the sampler's output, so event collection is always on
     here — no flag needed to make the table non-empty. *)
  Vmiface.Machine.set_default_trace (Some 4096);
  Experiments.Vmstat.run ~quick ~cpus ();
  let sources = Vmiface.Machine.traced () in
  Experiments.Vmstat.print_sources sources;
  (match metrics_out with
  | Some file ->
      let buf = Buffer.create 16384 in
      Sim.Trace_export.metrics_json buf sources;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "metrics written to %s\n" file
  | None -> ());
  (match spans_out with
  | Some file ->
      let buf = Buffer.create 16384 in
      Sim.Trace_export.spans_json buf sources;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "spans written to %s\n" file
  | None -> ());
  Vmiface.Machine.reset_traced ()

let vmstat_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Smaller working set and fewer sweeps (CI smoke test).")
  in
  let cpus =
    Arg.(value & opt int 1 & info [ "cpus" ] ~docv:"N"
           ~doc:"Boot the machines with $(docv) per-CPU page caches and \
                 rotate the sweep over them; adds per-CPU runnable/steal/\
                 hit-rate columns to the table.")
  in
  Cmd.v
    (Cmd.info "vmstat"
       ~doc:"Run an over-committed anonymous working set on both VM systems \
             and print the periodic sampler's view of it: free/active/\
             inactive pool levels, swap and swapcache occupancy, and \
             fault/pagein/pageout/migration rates over simulated time, plus \
             any watchdog warnings (pagedaemon thrash, stalled drain)")
    Term.(
      const (fun rr wr perm bad seed quick cpus mout spout ->
          install_faults rr wr perm bad seed;
          run_vmstat quick cpus mout spout)
      $ read_error_rate $ write_error_rate $ permanent $ bad_slots
      $ fault_seed $ quick $ cpus $ metrics_out $ spans_out)

(* -- resilience -------------------------------------------------------- *)

let run_resilience quick out =
  let rows = Experiments.Resilience.run ~quick () in
  Experiments.Resilience.print_result rows;
  match out with
  | Some file ->
      let buf = Buffer.create 4096 in
      Experiments.Resilience.json buf rows;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "resilience results written to %s\n" file
  | None -> ()

let resilience_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Smaller tiers and working set (CI smoke test).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-resilience/1 JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:"Tier failover: stream a file working set through a fast+slow \
             swap pair, kill the fast device mid-stream, and report \
             survival, migrations, swapcache hit rate and per-page latency \
             before/after the death for both VM systems")
    Term.(
      const (fun rr wr perm bad seed quick out ->
          install_faults rr wr perm bad seed;
          run_resilience quick out)
      $ read_error_rate $ write_error_rate $ permanent $ bad_slots
      $ fault_seed $ quick $ out)

(* -- soak -------------------------------------------------------------- *)

let run_soak seed quick out =
  let r = Experiments.Soak.run ~quick ~seed () in
  Experiments.Soak.print_result r;
  (match out with
  | Some file ->
      let buf = Buffer.create 4096 in
      Experiments.Soak.json buf r;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "soak results written to %s\n" file
  | None -> ());
  List.exists (fun s -> not s.Experiments.Soak.so_passed) r.rows

let soak_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Chaos scenario seed (phase magnitudes jitter with it).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Shorter simulated span (CI smoke test).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-soak/1 JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Chaos soak: run both kernels through a seeded scenario \
             composing fork/exit churn, an I/O error storm, a memory \
             pressure spike, a swap device death and an rlimit squeeze, \
             auditing every epoch.  Gated on SLOs: zero audit failures, \
             zero lost pages, bounded p99 fault latency, every OOM kill \
             attributed to a scenario phase.  Exits nonzero on breach.")
    Term.(
      const (fun seed quick out lout ->
          if with_lockstat lout (fun () -> run_soak seed quick out) then
            Stdlib.exit 1)
      $ seed $ quick $ out $ lockstat_out)

(* -- lockstat ---------------------------------------------------------- *)

let run_lockstat out folded_out =
  let r = Experiments.Lockstat.run () in
  Experiments.Lockstat.print r;
  (match out with
  | Some file ->
      let buf = Buffer.create 16384 in
      Experiments.Lockstat.json buf r;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "lockstat written to %s\n" file
  | None -> ());
  match folded_out with
  | Some file ->
      with_file file (fun oc ->
          output_string oc (Experiments.Lockstat.folded_string r));
      Printf.printf "folded profile written to %s\n" file
  | None -> ()

let lockstat_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-lockstat/2 JSON to $(docv).")
  in
  let folded_out =
    Arg.(value & opt (some string) None & info [ "folded-out" ] ~docv:"FILE"
           ~doc:"Also write the folded-stack profile (one \"path weight\" \
                 line per stack, self-time weighted, lock spans as \
                 lock:$(i,CLASS) frames) to $(docv) — feed it to \
                 flamegraph.pl or speedscope.")
  in
  Cmd.v
    (Cmd.info "lockstat"
       ~doc:"Lock observatory: drive one paging+IPC workload through every \
             registered lock class on both VM systems, then report \
             per-class hold-time histograms, the observed lock-order graph \
             (with lockdep-style cycle detection), and a flamegraph-ready \
             folded profile whose self times telescope to the measured \
             wall time.  Contention on several CPUs is measured by \
             $(b,smp --cpus) $(i,N).")
    Term.(
      const (fun rr wr perm bad seed out fout ->
          install_faults rr wr perm bad seed;
          run_lockstat out fout)
      $ read_error_rate $ write_error_rate $ permanent $ bad_slots
      $ fault_seed $ out $ folded_out)

(* -- smp --------------------------------------------------------------- *)

let run_smp cpus quick seed out =
  if cpus < 1 then begin
    Printf.eprintf "uvm_sim: --cpus must be >= 1 (got %d)\n" cpus;
    exit 2
  end;
  let r = Experiments.Smp.run ~quick ~cpus ?seed () in
  Experiments.Smp.print r;
  (match out with
  | Some file ->
      let buf = Buffer.create 16384 in
      Experiments.Smp.json buf r;
      with_file file (fun oc -> Buffer.output_buffer oc buf);
      Printf.printf "smp results written to %s\n" file
  | None -> ());
  List.exists
    (fun (s : Experiments.Smp.system_result) ->
      s.Experiments.Smp.ss_par.Experiments.Smp.kr_audit_failures <> [])
    r.Experiments.Smp.sm_systems

let smp_cmd =
  let cpus =
    Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N"
           ~doc:"Virtual CPU count for the storm: the scheduler interleaves \
                 the workers over $(docv) per-CPU virtual clocks and the \
                 kernels boot with $(docv) per-CPU page caches.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller storm for CI smoke.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED"
           ~doc:"Override the storm seed (default 42).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the uvm-sim-smp/1 JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "smp"
       ~doc:"Simulated SMP: run the same parallel fault storm through both \
             VM systems on N virtual CPUs with sharded physmem, per-CPU \
             page caches and the lockless lookup fast path, measuring \
             per-CPU lock waits, cache-line bounces, fast-path \
             hit rates and the 1-CPU-baseline speedup; mid-storm full \
             audits gate the sharding invariants")
    Term.(
      const (fun cpus quick seed out ->
          if run_smp cpus quick seed out then Stdlib.exit 1)
      $ cpus $ quick $ seed $ out)

(* -- commands --------------------------------------------------------- *)

let run_all () =
  List.iter (fun (_, _, f) -> f ()) experiments;
  Experiments.Resilience.print ()
let cmd_of (name, doc, f) = Cmd.v (Cmd.info name ~doc) (with_faults f)

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment in sequence")
    (with_faults run_all)

let () =
  let info =
    Cmd.info "uvm_sim" ~version:"1.0"
      ~doc:"Reproduction harness for the UVM virtual memory system paper"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         (all_cmd :: torture_cmd :: report_cmd :: serve_cmd
         :: resilience_cmd :: soak_cmd :: vmstat_cmd :: lockstat_cmd
         :: smp_cmd :: List.map cmd_of experiments))
  in
  (* A command-line error (unknown flag, unparsable value) exits 2, like
     the value checks above, rather than cmdliner's 124. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
