(** Simulated SMP: virtual CPUs, a deterministic scheduler and the lock
    contention cost model (DESIGN.md §16).

    The simulation stays sequential — one OCaml thread, one machine
    clock — but work is divided into {e quanta} attributed to N virtual
    CPUs, each owning a virtual clock.  The scheduler always runs the
    CPU whose virtual clock is furthest behind (ties: lowest index;
    round-robin within a CPU), so a run is a pure function of the task
    list and the seed: seed-stable and replayable.

    While a quantum runs, a {!Lockstat.set_observer} hook charges the
    machine clock for contention: acquiring an instance whose previous
    holds (in virtual time) still cover this CPU's present waits out the
    remainder — readers admit concurrently, writers exclude everyone —
    and acquiring an instance last held by another CPU pays
    {!Cost_model.t.line_bounce} for the cache-line transfer.  Machine
    time a quantum consumes (including those charges) advances the
    running CPU's virtual clock; wall time is the maximum virtual clock,
    which is how a parallel fault storm can finish in less wall time
    than its single-CPU serialization. *)

type t

val create :
  ?seed:int ->
  cpus:int ->
  clock:Simclock.t ->
  costs:Cost_model.t ->
  stats:Stats.t ->
  ?locks:Lockstat.t ->
  unit ->
  t
(** A scheduler over [cpus] virtual CPUs.  [stats] is the machine's
    global counter block: per-quantum deltas of it are accumulated into
    per-CPU shards (see {!cpu_views}).  [locks] is the machine's lock
    registry; without it (or with tracing off) no contention is
    modelled.  [seed] drives unpinned task placement. *)

val ncpus : t -> int

val add_task : t -> ?cpu:int -> name:string -> (int -> bool) -> unit
(** Enqueue a task: the step function is called with the number of steps
    already taken and returns [true] while it has more work.  One call =
    one scheduler quantum (a syscall/fault boundary).  [cpu] pins the
    task; unpinned tasks are placed seed-deterministically. *)

val set_on_dispatch : t -> (int -> unit) -> unit
(** Called with the CPU index at every context switch, before the
    quantum runs — the experiment points [Physmem.set_current_cpu]
    here so per-CPU page caches track the scheduler. *)

val run : ?every:int -> ?hook:(unit -> unit) -> t -> unit
(** Run quanta until every task finishes.  [hook] (with [every] > 0)
    runs between quanta each time the global quantum count is a multiple
    of [every] — audits mid-storm.  The contention observer is installed
    for the duration of the run and removed on exit, even on raise. *)

val current_cpu : t -> int
(** CPU of the quantum in flight, [-1] between quanta. *)

val runnable : t -> cpu:int -> int
(** Tasks currently queued on one CPU (the vmstat per-CPU gauge). *)

val wall_us : t -> float
(** Simulated wall time of the run: the maximum per-CPU virtual clock. *)

val quanta : t -> int

(** {1 Per-CPU results} *)

type cpu_view = {
  cv_cpu : int;
  cv_now_us : float;  (** the CPU's virtual clock *)
  cv_quanta : int;
  cv_stats : Stats.t;  (** shard: quantum deltas of the machine counters *)
  cv_wait_us : float;  (** contention wait charged on this CPU *)
  cv_bounces : int;  (** cache-line bounces charged on this CPU *)
  cv_wait_by_class : (string * float) list;  (** lock class → wait µs *)
  cv_bounce_by_class : (string * int) list;
}

val cpu_views : t -> cpu_view list
(** One view per CPU, in CPU order. *)

val total_wait_us : t -> float
val total_bounces : t -> int

val wait_by_class : t -> (string * float) list
(** Contention wait per lock class summed over CPUs, largest first. *)
