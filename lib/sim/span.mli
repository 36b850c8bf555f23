(** Causal spans: request-scoped trace trees over simulated time — the
    simulator's single kernel event source (UVMHIST's counterpart).

    Spans answer both "what happened" and "why was this request slow":
    every span records which open span caused it, and all spans
    triggered by one root share a trace id.  The simulator is
    sequential, so activation is strictly LIFO and the collector needs
    only a stack — each instrumented cut point makes one
    [start]/[finish] pair, with no context threading.  Point events
    (device death, a blacklisted slot) are zero-length spans, and the
    latency histograms are a view computed as spans finish.

    A disabled collector costs one boolean check per [start] and
    allocates nothing (a shared dummy span is returned and [finish]
    ignores it). *)

type span = {
  sid : int;  (** unique span id, > 0 ([0] only on the dummy) *)
  strace : int;  (** trace (root request) id shared by the tree *)
  sparent : int;  (** parent span id; [0] marks a root *)
  sname : string;
  ssubsys : string;  (** attribution key for {!self_times} *)
  sts : float;  (** simulated microseconds at [start] *)
  mutable sdur : float;  (** duration; [-1.0] while still open *)
  mutable sdetail : (string * string) list;
}

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] bounds the ring of finished spans (default 4096).
    Disabled collectors ([enabled:false], the default) record nothing. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val start : t -> subsys:string -> ts:float -> string -> span
(** Open a span as a child of the innermost open span, or as the root
    of a fresh trace when none is open.  Returns {!dummy} when the
    collector is disabled. *)

val dummy : span
(** The shared span a disabled collector hands out; finishing it is a
    no-op.  A hot cut point returns it itself when {!enabled} is false,
    so it reads no timestamp. *)

val live : span -> bool
(** Whether finishing [span] records it: not {!dummy}, not finished
    yet.  A hot cut point tests it before building a detail thunk. *)

val finish : t -> span -> ts:float -> ?detail:(string * string) list -> unit -> unit
(** Close [span] and append it to the finished ring.  If inner spans
    were left open (an exception skipped their [finish]), they are
    closed at the same timestamp first so the tree stays well-formed.
    A no-op on the dummy span or an already-finished span. *)

val finish_with :
  t -> span -> ts:float -> (unit -> (string * string) list) -> unit
(** [finish] with a detail thunk, forced only when [span] is live — the
    kernels' cut points use it so an untraced run builds no details. *)

val point :
  t ->
  subsys:string ->
  ts:float ->
  string ->
  (unit -> (string * string) list) ->
  unit
(** A zero-length span at [ts] (a point event), child of the innermost
    open span.  A no-op on a disabled collector. *)

val latencies : t -> (string * Histogram.t) list
(** One duration histogram per span name (simulated µs), fed as spans
    finish while the collector is on; non-empty series sorted by name.
    Unlike the ring, the histograms survive {!clear}: they describe the
    collector's whole life. *)

val spans : t -> span list
(** Finished spans, oldest first (bounded by [capacity]). *)

val open_spans : t -> span list
(** Currently open spans, outermost first — the active causal tree,
    dumped into crash artifacts. *)

val innermost : t -> ?skip:(span -> bool) -> unit -> span option
(** Innermost open span not rejected by [skip] — used to attribute
    work recorded outside the span tree (lock holds) to the active
    causal context. *)

val take_trace : t -> trace:int -> span list
(** Finished spans belonging to one trace, oldest first. *)

val recorded : t -> int
(** Finished spans ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Finished spans lost to ring wraparound. *)

val clear : t -> unit

val self_times : span list -> (string * float) list
(** Critical-path decomposition: per-subsystem self time (duration
    minus time covered by direct children), in first-seen order.  For a
    complete single-root trace the values sum to exactly the root span's
    duration. *)

val fold_paths : span list -> (string * float) list
(** Folded-stack flamegraph lines: each finished span's
    [";"]-joined root-to-span name path mapped to its accumulated self
    time, sorted by path.  Zero-self paths are omitted; over complete
    traces the values sum to the root durations (telescoping). *)
