(** Exporters for the observability layer.

    A {!source} bundles one traced machine's span collector — its single
    event stream, latency histograms included — and counters under a
    display label ("UVM", "BSD VM").  The
    exporters consume a list of sources so one run of an experiment —
    which boots both VM systems, possibly several times — lands in a
    single artifact.  Sources sharing a label (several boots in a sweep)
    are folded into one logical system by the aggregating exporters.
    Every machine-readable artifact is a {!Json.t}, printed by {!Json}. *)

type source = {
  mutable label : string;
  stats : Stats.t;
  lifecycle : Lifecycle.t;  (** ledger-derived efficacy analytics *)
  spans : Span.t;  (** causal span collector: every kernel event *)
  series : Timeseries.t;  (** vmstat-style periodic samples *)
  locks : Lockstat.t option;  (** the machine's lock registry *)
  mutable sync : unit -> unit;
      (** refresh the gauge fields of [stats] from the live machine;
          installed by the machine, called before any counter export *)
}

(** The machine-readable artifacts, one per kind. *)
type artifact =
  | Trace
      (** Chrome trace-event JSON, loadable in Perfetto or
          [chrome://tracing].  Each source becomes a process and each
          span subsystem a track (tids from 1, named ["span:<subsys>"]);
          every span is a complete ("X") event — point events are
          zero-length — with flow arrows ("s"/"f" pairs keyed by the
          child's span id) linking each child span to its parent. *)
  | Stats
      (** Counters + histogram summaries (schema ["uvm-sim-stats/2"]):
          per label, the non-zero counters, one duration histogram per
          span name (["fault"], ["pagein"], ["lock:map"], ...; simulated
          µs), and the span ring's recorded/dropped counts. *)
  | Report
      (** The comparative efficacy report (schema ["uvm-sim-report/1"]):
          per aggregated label, fault-ahead hit/waste per madvise mode,
          fault-in kind counts, pageout cluster size/contiguity and
          reassignment-distance distributions, residency and
          inter-fault histograms, the map-entry fragmentation census,
          and the count of illegal ledger transitions. *)
  | Spans
      (** Causal span trees (schema ["uvm-sim-spans/1"]): per source (not
          label-folded — span ids are collector-local), the finished
          spans oldest first, the still-open span stack, and ring
          accounting. *)
  | Metrics
      (** Time-series telemetry (schema ["uvm-sim-metrics/1"]): per
          source, the sampler's column names, retained samples and
          watchdog warnings. *)
  | Lockstat
      (** The lock observatory (schema ["uvm-sim-lockstat/2"]): the
          {!lockstat_systems} array under its schema tag. *)

val every_artifact : artifact list

val artifact_name : artifact -> string
(** ["trace"], ["stats"], ...: the [NAME] of the CLI's [--NAME-out]. *)

val export : artifact -> source list -> Json.t
(** The artifact of one kind over every source given. *)

val lockstat_systems : source list -> Json.t
(** The ["systems"] array of the lockstat schema: per label (sweeps
    merged via {!Lockstat.merge}), every class's acquire counts, hold
    histograms (total/read/write), per-subsystem attribution, the
    observed lock-order edges, any order cycles, and the locks held at
    export time.  Measured contention lives in the smp artifact. *)

val pp_dump : Format.formatter -> source list -> unit
(** Flat human-readable listing of every retained span. *)

val print_stats : source list -> unit
(** The per-label counter/percentile tables behind the CLI's [--stats]
    flag, on stdout. *)

val print_report : source list -> unit
(** Human rendering of the {!Report} artifact: side-by-side tables with one
    column per aggregated label ("UVM" vs "BSD VM"), on stdout. *)
