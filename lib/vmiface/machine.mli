(** The simulated machine: every hardware/kernel substrate bundled together.

    Both VM systems are booted on an identical machine (same clock, cost
    model, RAM, swap, disk, filesystem), mirroring the paper's methodology
    of measuring BSD VM and UVM on the same 333 MHz Pentium-II. *)

type config = {
  ram_pages : int;  (** physical memory size in pages *)
  swap_pages : int;  (** swap partition size in pages *)
  swap_tiers : Swap.Swaptier.spec list option;
      (** explicit swap device tiers; [None] boots one default-priority
          device of [swap_pages] slots (the classic single-device setup) *)
  page_size : int;  (** bytes per page *)
  max_vnodes : int;  (** in-core vnode limit *)
  costs : Sim.Cost_model.t;
  seed : int;  (** workload RNG seed *)
  fault_plan : (unit -> Sim.Fault_plan.t) option;
      (** I/O fault plan factory, invoked once per boot and installed on
          both the swap and filesystem disks *)
  trace_buf : int option;
      (** when set, boot with span collection enabled, the finished-span
          ring holding this many spans *)
  ncpus : int;
      (** virtual CPUs (default 1): sizes physmem's per-CPU free-page
          caches and adds per-CPU vmstat columns; the interleaving itself
          is driven by {!Sim.Smp} (DESIGN.md §16) *)
}

val default_config : config
(** 32 MB of RAM and 128 MB of swap with 4 KB pages — the machine used for
    the paper's Figure 5. *)

(** {2 The CLI session}

    Defaults set from CLI flags and the sources of traced boots.  The
    session is Domain-local: a domain spawned by a parallel runner
    inherits its parent's defaults and starts with no traced sources. *)

val set_default_fault_plan : (unit -> Sim.Fault_plan.t) option -> unit
(** Fallback used by [boot] when the config carries no plan; set from
    CLI flags so existing experiments run under faults without config
    plumbing.  A factory, so every boot gets a fresh identically-seeded
    plan (fair UVM-vs-BSD comparisons). *)

val set_default_trace : int option -> unit
(** Tracing fallback, same contract as {!set_default_fault_plan}: when a
    config carries no [trace_buf], [boot] uses this ring capacity (and
    [None] disables tracing). *)

val traced : unit -> Sim.Trace_export.source list
(** Observability state (label, span collector, counters, lock
    registry) of every machine this domain booted with tracing on since
    the last {!reset_traced}, in boot order.  A source's gauge sync
    reads its machine, so the session keeps every traced machine alive
    until {!reset_traced}. *)

val reset_traced : unit -> unit

val config_mb : ?ram_mb:int -> ?swap_mb:int -> unit -> config
(** Convenience: sizes in megabytes on top of {!default_config}. *)

val tiered : fast_pages:int -> slow_pages:int -> config -> config
(** Two-tier swap on top of [config]: a fast/small NVMe-like device
    ("fast", priority 0, 100x disk speed) in front of a slow/large
    disk-like one ("slow", priority 1, the machine's cost model). *)

type t = {
  config : config;
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  rng : Sim.Rng.t;
  physmem : Physmem.t;
  pmap_ctx : Pmap.ctx;
  swap : Swap.Swaptier.t;
  vfs : Vfs.t;
  lifecycle : Sim.Lifecycle.t;
      (** ledger-derived efficacy analytics, shared by physmem and pmap *)
  spans : Sim.Span.t;
      (** causal span collector: the machine's single event stream and
          the source of its latency histograms (disabled by default) *)
  series : Sim.Timeseries.t;
      (** vmstat-style sampler, clock-driven while tracing is on *)
  locks : Sim.Lockstat.t;
      (** the lock observatory registry (recording while tracing is on;
          its span sink is live whenever [spans] is) *)
  trace_source : Sim.Trace_export.source;
  mutable runnable_probe : (int -> int) option;
      (** per-CPU runnable count read by the vmstat sampler's
          [cpuK:runnable] columns; installed via {!set_runnable_probe} *)
  access_cost : float;
      (** [costs.mem_access], boxed once at boot: a record of floats only
          stores them flat, so passing one of its fields to {!charge}
          boxes it afresh wherever the call is not inlined.  The resident
          access path charges this one and allocates nothing. *)
  mutable next_id : int;  (** see {!fresh_id} *)
  mutable next_kernel_id : int;
      (** the booted kernel's own id supply (its objects, amaps, anons and
          address spaces), drawn by [Kernel.Make]'s [fresh_id] *)
}

val boot : ?config:config -> unit -> t

val set_runnable_probe : t -> (int -> int) option -> unit
(** Feed the sampler a per-CPU runnable count (the SMP scheduler's
    {!Sim.Smp.runnable}); [None] reads as zero. *)

val fresh_id : t -> int
(** The machine's id supply for OS-layer objects (process ids, IPC
    channels): 1, 2, 3, ... on every fresh machine.  Kernel objects draw
    from their own counter, [next_kernel_id]. *)

val page_size : t -> int
val now : t -> float
val charge : t -> float -> unit
(** Advance the simulated clock. *)

val span_start : t -> subsys:string -> string -> Sim.Span.span
(** Open a span on the machine's collector at the current simulated
    time ({!Sim.Span.dummy}, reading no time, when it is off). *)

val span_finish :
  t -> Sim.Span.span -> (unit -> (string * string) list) -> unit
(** Close a span at the current simulated time; the detail thunk is
    forced only when the span is live (see {!Sim.Span.finish_with}). *)

val set_label : t -> string -> unit
(** Name this machine in trace exports ("UVM", "BSD VM"). *)
