(** The lock observatory (DESIGN.md §15).

    Both kernels are sequential today, but every structure they guard —
    maps, amaps, objects, the paging queues, the swap tier, IPC channels,
    the pagedaemon — will become a real lock under simulated SMP.  This
    module gives each of them a registered lock {e now}: one instrumented
    acquire/release API that records per-class hold-time histograms
    (split by read/write mode and by the holding subsystem, attributed
    via the active {!Span}), and a dynamic class-level lock-order graph
    with cycle detection (the lockdep analogue, consumed by [Check.Lock]
    audits).  Contention itself is measured, not modelled: {!Smp} drives
    the observer hook below.

    A registry is cheap when inactive: acquire/release on a machine
    booted without tracing is a couple of field tests and no
    allocation. *)

type mode = Read | Write

type t
(** A per-machine lock registry. *)

type lock
(** One registered lock instance.  Acquires may nest recursively on the
    same instance (a depth count; only the outermost pair records). *)

val known_classes : string list
(** The kernel lock classes in canonical order:
    map, amap, object, pagequeue, swap, ipc, pdaemon, oom. *)

val create : ?enabled:bool -> now:(unit -> float) -> unit -> t
(** [now] supplies simulated-time timestamps (the machine clock). *)

val enabled : t -> bool

val set_spans : t -> Span.t option -> unit
(** Span sink: each recorded hold opens a ["lock:<class>"] span (subsys =
    class) so lock time shows up in critical-path decompositions, and the
    innermost non-lock open span attributes the hold to a subsystem.
    The pagequeue class is exempt (its leaf operations would flood the
    ring with zero-duration spans). *)

val active : t -> bool
(** True when acquires record anything: the registry is enabled, or its
    span sink is currently collecting. *)

(** {1 Contention observer (the simulated-SMP hook)} *)

type contention_event =
  | Acquired of { cls : string; inst : int; mode : mode; root : bool }
      (** fired on the outermost acquire of an instance, {e before} the
          hold's start timestamp is read — wait time the observer charges
          to the machine clock extends the wait, not the hold.  [root]
          marks an {!acquire_root}: a thread-context marker (pagedaemon,
          OOM reaper) that no fault path ever blocks on, which a
          contention model should ignore *)
  | Released of { cls : string; inst : int; mode : mode; root : bool }
      (** fired on the matching outermost release, after the hold end
          timestamp is read *)

val set_observer : t -> (contention_event -> unit) option -> unit
(** Install the contention observer ({!Smp} wires one per scheduler run).
    Events fire only while the registry is {!active} — an SMP run needs a
    traced machine.  Acquire/release pairs are balanced even if the
    observer is swapped mid-hold (a hold announced at acquire is always
    announced at release). *)

val register : t -> cls:string -> string -> lock
(** A fresh lock instance of class [cls].  [cls] need not be in
    {!known_classes} (tests register synthetic classes). *)

val instance : t -> cls:string -> id:int -> lock
(** Memoised registration keyed by [(cls, id)], named ["<cls>#<id>"], for
    a lock off the fault path (an IPC channel's, the OOM policy's).  An
    amap or object keeps its own handle instead, registered on the first
    fault that takes it while the registry is {!active}. *)

val acquire : t -> lock -> mode:mode -> unit
(** Record an acquire: nesting edges are drawn from every lock held in
    the current context to this one's class (same-class edges are
    ignored — instances of a class may nest). *)

val acquire_root : t -> lock -> mode:mode -> unit
(** Acquire as a context break: no edges are drawn from the locks held
    outside, and locks acquired while this one is held draw edges only
    back to it.  Models entry into a logically-separate thread — the
    pagedaemon running from inside an allocation that holds fault-path
    locks. *)

val release : t -> lock -> unit
(** Close the hold: observes the class histograms (total and per-mode),
    attributes the hold to the subsystem captured at acquire and
    finishes the lock span.  Balanced with {!acquire} even across
    {!active} flips. *)

val held : t -> (string * string) list
(** Currently held (class, instance-name) pairs, innermost first — the
    lock analogue of {!Span.open_spans}, dumped into crash artifacts. *)

(** {1 Aggregated views} *)

type class_view = {
  cv_cls : string;
  cv_instances : int;  (** registered instances *)
  cv_acquires : int;  (** outermost acquires (recursion not re-counted) *)
  cv_reads : int;
  cv_writes : int;
  cv_hold : Histogram.t;  (** hold time, µs, all modes *)
  cv_read_hold : Histogram.t;
  cv_write_hold : Histogram.t;
  cv_by_subsys : (string * int * float) list;
      (** (subsystem, holds, total µs) attributed via the span stack *)
  cv_max_hold_us : float;
}

val views : t -> class_view list
(** One view per class with at least one registered instance, in
    {!known_classes} order (unknown classes after, in registration
    order).  The histograms are live — snapshot before mutating. *)

val total_acquires : t -> int
val class_hold_us : t -> string -> float
(** Cumulative recorded hold time of one class (0 if unknown). *)

val take_window_max_us : t -> float
(** Largest single hold recorded since the previous call, then reset —
    the vmstat "max hold this window" gauge. *)

(** {1 Lock-order auditing} *)

val order_edges : t -> (string * string * int) list
(** Observed class-level nesting edges (held-class, acquired-class,
    count), sorted. *)

val cycles : t -> string list list
(** Elementary cycles in the order graph, each as the class sequence
    [c1 -> c2 -> ... -> c1] (the closing edge implied), normalised to
    start at the lexicographically-smallest class and deduplicated.
    Empty means lock-order clean. *)

val merge : into:t -> t -> unit
(** Fold a registry's recorded data (counts, histograms, attribution,
    order edges) into [into] — label-level aggregation across
    several boots of the same system. *)
