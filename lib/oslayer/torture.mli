(** Seeded torture harness with a differential oracle and trace shrinking.

    Drives UVM and the BSD VM baseline through one randomly generated but
    fully reproducible operation sequence on identically configured small
    machines, runs both kernels' invariant auditors every K operations,
    and compares each operation's observable outcome.  A failure produces
    a structured {!bug}, a crash artifact on disk, and (optionally) a
    ddmin-minimized replay of the trace.  The crash file reads back with
    {!read_crash} and runs again with {!replay}: copied into
    [test/regress/], it is a regression test.

    Placement is decided by the harness itself (first fit over a shared
    model) and passed to both systems via [fixed_at], so a trace denotes
    the same address-space history under both kernels and under replay of
    any subsequence — the property the shrinker relies on. *)

(** One operation of a trace.  Every operand is a small integer: process
    and region {e slots} rather than addresses, so a prefix- or
    subset-replay re-resolves them against the model and skips ops whose
    preconditions no longer hold.  A trace is data: {!encode} names each
    op and its operands, and a crash file stores it as op objects. *)
type op

val op_to_string : op -> string
(** [name(k=v,...)], the operands in {!encode}'s order. *)

val encode : op -> string * (string * int) list
(** The op's name and its operands by name (a flag reads 0 or 1), as a
    crash file's op object lists them after its ["i"] and ["op"] keys. *)

val decode : string -> (string * int) list -> op
(** The inverse of {!encode}; an operand it does not read is ignored.
    @raise Failure on an unknown name or a missing operand. *)

val op_of_json : Sim.Json.t -> int * op
(** An op object of a crash file: its trace index and its op.
    @raise Failure on an unknown name, a missing operand or index, or a
    value that is not an int. *)

(** Observable result of one operation, compared across the two systems.
    [Oom] is a {e conditional} wildcard: page-reclamation timing may
    legitimately differ between the kernels, so an out-of-memory outcome
    matches anything — but only while memory is plausibly short (within a
    window after a [Pressure]/[Kwire]/[Vsl_grab] op, or while either
    kernel's free-page or swap-slot count is measurably low).  An Oom
    divergence on a calm machine is reported as a {!Mismatch}. *)
type outcome =
  | Done
  | Byte of int
  | Io of { n : int; sum : int }
  | Fault of string
  | Oom

(** Deliberate state corruptions, applied mid-run to the UVM instance so
    tests can prove the auditor catches each class of bug and attributes
    it to the right subsystem. *)
type corruption =
  | Leak_swap_slot
  | Overref_anon
  | Queue_double_insert
  | Leak_loan
  | Leak_swapcache

val corruptions : (string * corruption) list
(** Each corruption under the name [--corrupt] and the crash file give
    it. *)

type bug =
  | Audit_bug of { op_index : int; f : Check.failure }
  | Mismatch of { op_index : int; op : op; uvm : outcome; bsd : outcome }
  | Crash of { op_index : int; op : op; system : string; exn : string }

val string_of_bug : bug -> string

type cfg = {
  seed : int;
  nops : int;
  audit_every : int;  (** audit both kernels every K executed ops *)
  faults : bool;  (** inject transient disk I/O errors (audits only) *)
  shrink : bool;  (** ddmin the trace after a failure *)
  artifact_dir : string option;
      (** on failure, write crash artifacts to [<dir>/seed-<seed>/], so
          runs of different seeds never overwrite each other *)
  corrupt : (int * corruption) option;
      (** apply the corruption at the first op whose original trace index
          reaches the threshold *)
  ram_pages : int;
  swap_pages : int;
  trace_buf : int;  (** span-ring capacity per machine, for artifacts *)
  tiers : bool;
      (** boot both kernels on a fast+slow swap-tier pair (same total
          slot budget) so audits cover cross-tier accounting *)
}

val default_cfg : cfg
(** seed 42, 5000 ops, audit every 100, no faults, no shrinking, 256-page
    RAM and 2048-slot swap — small enough that paging starts quickly. *)

type result = {
  r_bug : bug option;  (** [None] = run completed with all audits clean *)
  r_trace : (int * op) list;
      (** ops actually fed, with original indices; ends at the failure *)
  r_minimal : (int * op) list option;  (** shrunken replay, if requested *)
  r_artifacts : string option;  (** artifact directory written, if any *)
}

val run : cfg -> result

val read_crash : Sim.Json.t -> cfg * (int * op) list
(** The config a [uvm-sim-torture/1] crash file records, and its
    [minimal] repro when it has one, else its [trace].  [shrink] is off
    and [artifact_dir] is [None].
    @raise Failure when a config field is missing or mistyped, and on a
    malformed op, naming the op's position in its list. *)

val replay : cfg -> (int * op) list -> bug option * int
(** Feed a recorded trace to fresh boots of both systems, auditing every
    [cfg.audit_every] ops and at the end: the first bug, if any, and how
    many ops resolved and ran. *)
