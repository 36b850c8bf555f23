(** Seeded torture harness with a differential oracle and trace shrinking.

    Drives UVM and the BSD VM baseline through one randomly generated but
    fully reproducible operation sequence on identically configured small
    machines, runs both kernels' invariant auditors every K operations,
    and compares each operation's observable outcome.  A failure produces
    a structured {!bug}, a crash artifact on disk, and (optionally) a
    ddmin-minimized replay of the trace.

    Placement is decided by the harness itself (first fit over a shared
    model) and passed to both systems via [fixed_at], so a trace denotes
    the same address-space history under both kernels and under replay of
    any subsequence — the property the shrinker relies on. *)

(** One serializable operation.  All operands are small integers: process
    and region {e slots} rather than addresses, so a prefix- or
    subset-replay re-resolves them against the model and skips ops whose
    preconditions no longer hold. *)
type op =
  | Spawn of { p : int }
  | Exit of { p : int }
  | Fork of { parent : int; child : int }
  | Mmap of {
      p : int;
      r : int;
      npages : int;
      prot_ix : int;
      shared : bool;
      src_file : int;
      fileoff : int;
    }
  | Munmap of { p : int; r : int; off : int; len : int }
  | Mprotect of { p : int; r : int; off : int; len : int; prot_ix : int }
  | Minherit of { p : int; r : int; inh_ix : int }
  | Madvise of { p : int; r : int; adv_ix : int }
  | Read of { p : int; r : int; page : int }
  | Write of { p : int; r : int; page : int; byte : int }
  | Mlock of { p : int; r : int; off : int; len : int }
  | Munlock of { p : int; r : int; off : int; len : int }
  | Msync of { p : int; r : int; off : int; len : int }
  | Pressure of { npages : int }
  | Pipe_open of { k : int }
  | Pipe_close of { k : int }
  | Pipe_write of {
      k : int;
      p : int;
      r : int;
      off : int;  (** byte offset within the region *)
      len : int;  (** byte count *)
      pol_ix : int;  (** index into {!Ipc.all_policies} *)
      vsl : bool;  (** wire the user buffer around the transfer *)
    }
  | Pipe_read of { k : int; p : int; r : int; off : int; len : int; vsl : bool }
  | Kwire of { k : int; npages : int }
      (** wired kernel allocation into global slot [k] — the §3.2 kernel
          wiring cases (user structures, page-table pages) as first-class
          trace ops *)
  | Kunwire of { k : int }
  | Vsl_grab of { p : int; r : int; off : int; len : int }
      (** vslock a page range and hold it across later ops (a long physio
          buffer); at most one held buffer per process, dropped implicitly
          on [Exit] *)
  | Vsl_drop of { p : int }

val op_to_string : op -> string

val op_fields : op -> (string * int) list
(** The operands of an op by name, in the order [op_to_string] and the
    crash file's op objects list them (a flag reads 0 or 1). *)

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

val corruption_of_string : string -> corruption option

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

type drive_source =
  | Fresh of int  (** generate this many ops from [cfg.seed] *)
  | Replay of (int * op) list  (** feed a recorded trace *)

val drive :
  cfg ->
  drive_source ->
  bug option * (int * op) list * Sim.Trace_export.source list
(** One run through fresh boots of both systems: [run] composes this with
    the shrinker and artifact writer; tests can use it directly to replay
    a shrunken repro. *)
