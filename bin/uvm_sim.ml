(** uvm_sim — reproduce the tables and figures of "The UVM Virtual Memory
    System" (Cranor & Parulkar, USENIX 1999) on the simulated substrate.

    Each subcommand but [torture] is one entry of
    [Experiments.Registry], and takes exactly the knobs that entry
    declares.  Most regenerate one paper artifact, comparing UVM with the
    BSD VM baseline on an identical simulated machine.

    An experiment that declares the fault knob can be run on failing
    hardware: the fault-injection options install a default fault plan
    that every machine booted by the experiment inherits (a fresh,
    identically-seeded plan per boot, so UVM and BSD VM face the same
    error sequence). *)

open Cmdliner
module Registry = Experiments.Registry
module Trace_export = Sim.Trace_export

(* An option value outside its range is a usage error, which exits 2 like
   every other command-line error. *)
let checked conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%s (got %s)" expect s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = checked Arg.int ~expect:"must be >= 1" (fun n -> n >= 1)

let rate =
  checked Arg.float ~expect:"must be in [0,1]" (fun r -> r >= 0.0 && r <= 1.0)

let file_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* One [--FLAG FILE] option per item, [flag_doc] naming it; the term is
   the items given a file, each with its file. *)
let files_term flag_doc items =
  List.fold_right
    (fun x rest ->
      let flag, doc = flag_doc x in
      Term.(const (fun f fs ->
                match f with Some file -> (file, x) :: fs | None -> fs)
            $ file_opt flag doc $ rest))
    items (Term.const [])

let written what file = Printf.printf "%s written to %s\n" what file

(* -- fault-injection options ----------------------------------------- *)

let faults_term =
  let read_rate =
    Arg.(value & opt rate 0.0 & info [ "read-error-rate" ] ~docv:"RATE"
           ~doc:"Fail each disk read with probability $(docv) (transient \
                 unless $(b,--permanent)).")
  in
  let write_rate =
    Arg.(value & opt rate 0.0 & info [ "write-error-rate" ] ~docv:"RATE"
           ~doc:"Fail each disk write with probability $(docv) (transient \
                 unless $(b,--permanent)).")
  in
  let permanent =
    Arg.(value & flag & info [ "permanent" ]
           ~doc:"Rate-injected errors are permanent (bad media) instead of \
                 transient.")
  in
  let bad_slots =
    Arg.(value & opt_all positive [] & info [ "bad-slot" ] ~docv:"SLOT"
           ~doc:"Treat swap slot $(docv) as bad media: every write to it \
                 fails permanently.  Repeatable.")
  in
  let fault_seed =
    Arg.(value & opt int 0xFA17 & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Seed for the fault plan's random number generator.")
  in
  let install read_rate write_rate permanent bad fault_seed =
    if read_rate > 0.0 || write_rate > 0.0 || bad <> [] then
      Vmiface.Machine.set_default_fault_plan
        (Some
           (fun () ->
             let plan =
               Sim.Fault_plan.create ~seed:fault_seed
                 ~read_error_rate:read_rate ~write_error_rate:write_rate
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
  in
  Term.(const install $ read_rate $ write_rate $ permanent $ bad_slots
        $ fault_seed)

(* -- observability options --------------------------------------------- *)

(* The trace's line always counts its spans; the other exports are named
   only when [announce]. *)
let write_artifact ~announce file a sources =
  Sim.Json.to_file file (Trace_export.export a sources);
  match a with
  | Trace_export.Trace ->
      Printf.printf "trace written to %s (%d spans)\n" file
        (List.fold_left
           (fun n s -> n + List.length (Sim.Span.spans s.Trace_export.spans))
           0 sources)
  | a -> if announce then written (Trace_export.artifact_name a) file

type observe = {
  files : (string * Trace_export.artifact) list;
  stats : bool;  (* print the counter and percentile tables *)
  trace_buf : int;
  announce : bool;  (* name each export written *)
}

(* The options for [artifacts]: one [--NAME-out] per artifact, plus
   [--stats] with the stats snapshot and [--trace-buf] with the trace.
   A command offering every export (a paper artifact, or [all]) writes
   them without a line each, the trace's span count aside; one offering
   a chosen few names each file it writes. *)
let observe_term artifacts =
  let files =
    files_term
      (fun a -> (Trace_export.artifact_name a ^ "-out", Registry.artifact_doc a))
      artifacts
  in
  let announce = artifacts <> Trace_export.every_artifact in
  let stats =
    if List.mem Trace_export.Stats artifacts then
      Arg.(value & flag & info [ "stats" ]
             ~doc:"After the experiment, print the full non-zero counter \
                   table and latency percentiles of every system it booted.")
    else Term.const false
  in
  let trace_buf =
    if List.mem Trace_export.Trace artifacts then
      Arg.(value & opt positive 65536 & info [ "trace-buf" ] ~docv:"N"
             ~doc:"Span ring capacity: each traced machine keeps its most \
                   recent $(docv) finished spans (latency histograms cover \
                   every span regardless).")
    else Term.const 65536
  in
  Term.(const (fun files stats trace_buf ->
            { files; stats; trace_buf; announce })
        $ files $ stats $ trace_buf)

(* Run [f] with every machine it boots traced when [o] asks for any
   output, then print and write what [o] asks for. *)
let observed o f =
  if o.files <> [] || o.stats then
    Vmiface.Machine.set_default_trace (Some o.trace_buf);
  let r = f () in
  let sources = Vmiface.Machine.traced () in
  if o.stats then Trace_export.print_stats sources;
  List.iter
    (fun (file, a) -> write_artifact ~announce:o.announce file a sources)
    o.files;
  Vmiface.Machine.reset_traced ();
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
  Option.iter
    (fun file ->
      write_artifact ~announce:true file Trace_export.Lockstat
        (List.concat_map (fun (_, _, _, s) -> s) results))
    lockstat_out;
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
    let kinds = Oslayer.Torture.corruptions in
    Arg.(value & opt (some (enum kinds)) None & info [ "corrupt" ] ~docv:"KIND"
           ~doc:("Deliberately corrupt kernel state mid-run to exercise the \
                  auditor: " ^ doc_alts_enum kinds ^ "."))
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
          let corrupt = Option.map (fun c -> (corrupt_at, c)) corrupt in
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
      $ corrupt_at $ ram_pages $ swap_pages $ tiers
      $ file_opt "lockstat-out" (Registry.artifact_doc Trace_export.Lockstat))


(* -- registry commands --------------------------------------------------- *)

(* The knob values an entry's flags set; a knob it does not honour gets
   no flag, so passing one is a usage error. *)
let params_term (k : Registry.knobs) =
  let d = Registry.params k in
  let int_knob name docv parse unset = function
    | Some { Registry.default; doc } ->
        Arg.(value & opt parse default & info [ name ] ~docv ~doc)
    | None -> Term.const unset
  in
  let quick =
    if k.quick then
      Arg.(value & flag & info [ "quick" ]
             ~doc:"Smaller workload (CI smoke test).")
    else Term.const false
  in
  Term.(const (fun quick seed cpus -> { Registry.quick; seed; cpus })
        $ quick
        $ int_knob "seed" "SEED" Arg.int d.seed k.seed
        $ int_knob "cpus" "N" positive d.cpus k.cpus)

(* Every entry writes its [json] document behind [--out], and its own
   extra outputs behind theirs. *)
let cmd_of_entry (Registry.Entry e) =
  let out : _ Registry.output =
    {
      flag = "out";
      what = e.out_what;
      doc = "Also write the result as JSON to $(docv).";
      write = (fun file r -> Sim.Json.to_file file (e.json r));
    }
  in
  let run () params observe outputs =
    let ok =
      observed observe (fun () ->
          let r = e.run params in
          e.print r;
          List.iter
            (fun (file, (o : _ Registry.output)) ->
              o.write file r;
              written o.what file)
            outputs;
          e.ok r)
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const run
          $ (if e.knobs.faults then faults_term else const ())
          $ params_term e.knobs
          $ observe_term e.knobs.artifacts
          $ files_term
              (fun (o : _ Registry.output) -> (o.flag, o.doc))
              (out :: e.outputs))

(* [all] runs every entry marked for it at its defaults, under the paper
   experiments' fault and observability options. *)
let all_cmd =
  let run () observe =
    let ok =
      observed observe (fun () ->
          List.fold_left
            (fun ok (Registry.Entry e) ->
              if not e.in_all then ok
              else begin
                let r = e.run (Registry.params e.knobs) in
                e.print r;
                e.ok r && ok
              end)
            true Registry.entries)
    in
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment in sequence")
    Term.(const run $ faults_term $ observe_term Trace_export.every_artifact)

let () =
  let info =
    Cmd.info "uvm_sim" ~version:"1.0"
      ~doc:"Reproduction harness for the UVM virtual memory system paper"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         (all_cmd :: torture_cmd :: List.map cmd_of_entry Registry.entries))
  in
  (* A command-line error (unknown flag, unparsable or out-of-range value)
     exits 2 rather than cmdliner's 124. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
