(** The experiment registry: every experiment the CLI and the bench run,
    declared once.

    An entry names the knobs it honours, how to run it at given knob
    values, and how its result is printed, serialised and judged.
    [uvm_sim] builds one subcommand per entry from these declarations and
    [all] folds over the entries marked [in_all]; the bench folds over the
    entries that set [bench] and embeds each one's [json]
    document under [experiments.<name>]. *)

(* -- observability artifacts -------------------------------------------- *)

(** The help text of [--NAME-out], which writes one
    {!Sim.Trace_export.artifact} of every machine traced during a run. *)
let artifact_doc : Sim.Trace_export.artifact -> string = function
  | Trace ->
      "Write a Chrome trace-event JSON file of every traced machine to \
       $(docv) (open in Perfetto or chrome://tracing): every span, one \
       track per subsystem.  Implies span collection."
  | Stats ->
      "Write a JSON snapshot (schema uvm-sim-stats/2: counters and one \
       latency histogram per span name) to $(docv)."
  | Report ->
      "Write the comparative efficacy report (schema uvm-sim-report/1: \
       fault-ahead hit/waste per madvise mode, pageout cluster \
       distributions, residency percentiles, map-entry census) of every \
       system the experiment booted to $(docv)."
  | Spans ->
      "Write the causal span trees (schema uvm-sim-spans/1: every finished \
       span with its trace/parent ids, plus any still-open stack) of every \
       traced machine to $(docv).  Implies span collection."
  | Metrics ->
      "Write the vmstat-style time-series (schema uvm-sim-metrics/1: \
       periodic gauge/counter samples and watchdog warnings) of every \
       traced machine to $(docv).  Implies span collection."
  | Lockstat ->
      "Write the lock observatory (schema uvm-sim-lockstat/2: per-class \
       hold-time histograms split by read/write mode and by holding \
       subsystem, and the observed lock-order graph with any cycles) of \
       every traced machine to $(docv).  Implies span collection."

(* -- knobs ----------------------------------------------------------- *)

type int_knob = { default : int; doc : string }

(** What an entry honours.  The CLI offers exactly these flags (plus
    [--out]); any other is a usage error. *)
type knobs = {
  quick : bool;  (** [--quick]: a smaller workload *)
  seed : int_knob option;
  cpus : int_knob option;
  faults : bool;  (** the fault-injection flags *)
  artifacts : Sim.Trace_export.artifact list;
}

let no_knobs =
  { quick = false; seed = None; cpus = None; faults = false; artifacts = [] }

(* The paper's artifacts run on failing hardware and under every
   observability export. *)
let paper_knobs =
  { no_knobs with faults = true; artifacts = Sim.Trace_export.every_artifact }

(** The knob values one run gets: an honoured knob the caller leaves
    alone is at its default, an unhonoured one reads 0.  The entries
    below hold the only defaults: the experiment modules take every knob
    value as an argument. *)
type params = { quick : bool; seed : int; cpus : int }

let params ?(quick = false) (k : knobs) =
  let default = function Some (n : int_knob) -> n.default | None -> 0 in
  { quick; seed = default k.seed; cpus = default k.cpus }

(** How the bench runs an entry: at its defaults, or with [quick] set
    (which the entry must honour). *)
type bench = Defaults | Quick

(* -- entries --------------------------------------------------------- *)

(** An extra file an entry can write from its result, behind [--flag]. *)
type 'r output = {
  flag : string;
  what : string;  (** named in the "written to" line *)
  doc : string;
  write : string -> 'r -> unit;  (** to the file named *)
}

type t =
  | Entry : {
      name : string;
      doc : string;
      knobs : knobs;
      run : params -> 'r;
      print : 'r -> unit;
      json : 'r -> Sim.Json.t;  (** the [--out] and bench document *)
      out_what : string;  (** names the [--out] file when it is written *)
      ok : 'r -> bool;  (** false exits 1 *)
      outputs : 'r output list;
      bench : bench option;  (** [None]: the bench skips it *)
      in_all : bool;  (** run by [uvm_sim all] *)
    }
      -> t

let entry ?(knobs = paper_knobs) ?(ok = fun _ -> true) ?(outputs = [])
    ?(bench = Some Defaults) ?(in_all = false) ?out_what ~name ~doc ~run
    ~print ~json () =
  let out_what = Option.value out_what ~default:(name ^ " results") in
  Entry
    { name; doc; knobs; run; print; json; out_what; ok; outputs; bench; in_all }

(* A paper artifact: fixed size, run by [all] and by the bench. *)
let paper ~name ~doc run ~print ~json =
  entry ~name ~doc ~in_all:true ~run:(fun _ -> run ()) ~print ~json ()

(* An ablation of one UVM tunable: fixed size, benched, not run by [all]. *)
let ablation ~name ~doc run ~print ~json =
  entry ~name ~doc ~knobs:no_knobs ~run:(fun _ -> run ()) ~print ~json ()

let entries =
  [
    paper ~name:"table1" ~doc:"Table 1: allocated map entries" Table1.run
      ~print:Table1.print ~json:Table1.json;
    paper ~name:"table2" ~doc:"Table 2: page fault counts" Table2.run
      ~print:Table2.print ~json:Table2.json;
    paper ~name:"table3" ~doc:"Table 3: single-page map-fault-unmap time"
      Table3.run ~print:Table3.print ~json:Table3.json;
    paper ~name:"fig2" ~doc:"Figure 2: object cache effect on file access"
      Fig2.run ~print:Fig2.print ~json:Fig2.json;
    paper ~name:"fig5" ~doc:"Figure 5: anonymous memory allocation time"
      Fig5.run ~print:Fig5.print ~json:Fig5.json;
    paper ~name:"fig6" ~doc:"Figure 6: fork+wait overhead" Fig6.run
      ~print:Fig6.print ~json:Fig6.json;
    paper ~name:"datamove" ~doc:"Section 7: loanout/transfer/mexp vs copy"
      Datamove.run ~print:Datamove.print ~json:Datamove.json;
    paper ~name:"swapleak" ~doc:"Section 5.3: swap leak demonstration"
      Swapleak.run ~print:Swapleak.print ~json:Swapleak.json;
    entry ~name:"resilience" ~in_all:true
      ~doc:
        "Tier failover: stream a file working set through a fast+slow swap \
         pair, kill the fast device mid-stream, and report survival, \
         migrations, swapcache hit rate and per-page latency before/after \
         the death for both VM systems"
      ~knobs:{ no_knobs with quick = true; faults = true }
      ~run:(fun p -> Resilience.run ~quick:p.quick ())
      ~print:Resilience.print ~json:Resilience.json ();
    (* No fault knob: serve does no disk I/O, so the fault plan cannot
       touch it. *)
    entry ~name:"serve"
      ~doc:
        "Section 7 end-to-end: N clients request payloads from a server \
         under memory pressure, once per IPC policy (copy, page loanout, \
         map-entry passing) on both VM systems, reporting throughput and \
         round-trip latency percentiles"
      ~knobs:{ no_knobs with quick = true; artifacts = [ Lockstat ] }
      ~run:(fun p -> Serve.run ~quick:p.quick ())
      ~print:Serve.print ~json:Serve.json ();
    (* The bench tracks the quick profile's overload counters and p99;
       the full soak is a CI gate of its own. *)
    entry ~name:"soak"
      ~doc:
        "Chaos soak: run both kernels through a seeded scenario composing \
         fork/exit churn, an I/O error storm, a memory pressure spike, a \
         swap device death and an rlimit squeeze, auditing every epoch.  \
         Gated on SLOs: zero audit failures, zero lost pages, bounded p99 \
         fault latency, every OOM kill attributed to a scenario phase.  \
         Exits nonzero on breach."
      ~knobs:
        {
          no_knobs with
          quick = true;
          seed =
            Some
              {
                default = 42;
                doc = "Chaos scenario seed (phase magnitudes jitter with it).";
              };
          artifacts = [ Lockstat ];
        }
      ~run:(fun p -> Soak.run ~quick:p.quick ~seed:p.seed ())
      ~print:Soak.print ~json:Soak.json
      ~ok:(fun r -> List.for_all (fun s -> s.Soak.so_passed) r.Soak.rows)
      ~bench:(Some Quick) ();
    entry ~name:"lockstat"
      ~doc:
        "Lock observatory: drive one paging+IPC workload through every \
         registered lock class on both VM systems, then report per-class \
         hold-time histograms, the observed lock-order graph (with \
         lockdep-style cycle detection), and a flamegraph-ready folded \
         profile whose self times telescope to the measured wall time.  \
         Contention on several CPUs is measured by $(b,smp --cpus) $(i,N)."
      ~knobs:{ no_knobs with faults = true }
      ~out_what:"lockstat" ~run:(fun _ -> Lockstat.run ())
      ~print:Lockstat.print ~json:Lockstat.json
      ~outputs:
        [
          {
            flag = "folded-out";
            what = "folded profile";
            doc =
              "Also write the folded-stack profile (one \"path weight\" line \
               per stack, self-time weighted, lock spans as \
               lock:$(i,CLASS) frames) to $(docv) — feed it to \
               flamegraph.pl or speedscope.";
            write =
              (fun file r ->
                Out_channel.with_open_text file (fun oc ->
                    output_string oc (Lockstat.folded_string r)));
          };
        ]
      ();
    (* The bench tracks the quick 4-CPU storm; the full storm is a CI gate
       of its own. *)
    entry ~name:"smp"
      ~doc:
        "Simulated SMP: run the same parallel fault storm through both VM \
         systems on N virtual CPUs with sharded physmem, per-CPU page \
         caches and the lockless lookup fast path, measuring per-CPU lock \
         waits, cache-line bounces, fast-path hit rates and the \
         1-CPU-baseline speedup; mid-storm full audits gate the sharding \
         invariants"
      ~knobs:
        {
          no_knobs with
          quick = true;
          seed = Some { default = 42; doc = "The storm seed." };
          cpus =
            Some
              {
                default = 4;
                doc =
                  "Virtual CPU count for the storm: the scheduler \
                   interleaves the workers over $(docv) per-CPU virtual \
                   clocks and the kernels boot with $(docv) per-CPU page \
                   caches.";
              };
        }
      ~run:(fun p -> Smp.run ~quick:p.quick ~cpus:p.cpus ~seed:p.seed ())
      ~print:Smp.print ~json:Smp.json
      ~ok:(fun r ->
        List.for_all
          (fun (s : Smp.system_result) ->
            s.Smp.ss_par.Smp.kr_audit_failures = [])
          r.Smp.sm_systems)
      ~bench:(Some Quick) ();
    (* The ledger-derived efficacy report (DESIGN.md §10): the bench embeds
       it whole, so the trajectory tracks policy efficacy, not just
       timings. *)
    entry ~name:"report"
      ~doc:
        "Comparative efficacy report: the page-lifecycle ledger's derived \
         analytics (fault-ahead hit/waste per madvise mode, pageout cluster \
         size/contiguity, swap reassignment distances, residency and \
         inter-fault histograms, map-entry census) for UVM and BSD VM over \
         one mixed paging workload"
      ~knobs:{ no_knobs with quick = true; faults = true }
      ~out_what:"report" ~run:(fun p -> Effreport.run ~quick:p.quick ())
      ~print:Effreport.print ~json:Sim.Trace_export.(export Report) ();
    entry ~name:"vmstat"
      ~doc:
        "Run an over-committed anonymous working set on both VM systems and \
         print the periodic sampler's view of it: free/active/inactive pool \
         levels, swap and swapcache occupancy, and fault/pagein/pageout/\
         migration rates over simulated time, plus any watchdog warnings \
         (pagedaemon thrash, stalled drain)"
      ~knobs:
        {
          no_knobs with
          quick = true;
          cpus =
            Some
              {
                default = 1;
                doc =
                  "Boot the machines with $(docv) per-CPU page caches and \
                   rotate the sweep over them; adds per-CPU runnable/steal/\
                   hit-rate columns to the table.";
              };
          faults = true;
          artifacts = [ Metrics; Spans ];
        }
      ~run:(fun p -> Vmstat.run ~quick:p.quick ~cpus:p.cpus ())
      ~print:Vmstat.print ~json:Sim.Trace_export.(export Metrics) ~bench:None ();
    ablation ~name:"ablation_pageout_cluster"
      ~doc:
        "Ablation (Section 6): UVM's pageout cluster size swept from 1 \
         (BSD-style one page per write) to 32 over a 48MB anonymous fill \
         of 32MB of RAM, reporting simulated time and swap write I/Os"
      Ablation.Pageout_cluster.run ~print:Ablation.Pageout_cluster.print
      ~json:Ablation.Pageout_cluster.json;
    ablation ~name:"ablation_fault_ahead"
      ~doc:
        "Ablation (Section 5.4): UVM's fault-ahead window (behind/ahead) \
         swept from disabled to twice the paper's 3/4 over the cc trace's \
         text accesses, reporting the faults taken"
      Ablation.Fault_ahead.run ~print:Ablation.Fault_ahead.print
      ~json:Ablation.Fault_ahead.json;
    ablation ~name:"ablation_fault_rate"
      ~doc:
        "Ablation: transient write-error rate x UVM's pageout cluster size \
         over a 24MB anonymous fill of 16MB of RAM, reporting write I/Os, \
         injected errors and pageout retries"
      Ablation.Fault_rate.run ~print:Ablation.Fault_rate.print
      ~json:Ablation.Fault_rate.json;
  ]
