(** Log-bucketed latency histograms.

    Fault-path, lock-hold and pager I/O latencies in the simulator span
    several orders of magnitude (a soft fault is ~10 µs, a clustered
    pageout tens of milliseconds), so buckets grow geometrically: four
    per octave, giving ~19% worst-case relative error on any reported
    percentile.  Values are simulated microseconds but the structure is
    unit-agnostic. *)

type t

val create : unit -> t

val observe : t -> float -> unit
(** Record one sample.  Negative and non-finite samples are ignored. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
val max_value : t -> float
(** Exact extremes of the observed samples; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100]: a representative value from the
    bucket containing the p-th percentile sample, clamped to the exact
    observed [min,max].  0 when empty. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float

val merge : into:t -> t -> unit
(** Accumulate a second histogram's samples into [into]. *)

(** {1 Named collections}

    A span collector keeps one [set], one series per span name
    ("fault", "pagein", ...), each created on first use. *)

type set

val create_set : unit -> set
val get : set -> string -> t
val rows : set -> (string * t) list
(** Non-empty series sorted by name. *)
