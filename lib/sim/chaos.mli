(** Seeded chaos scenarios for the soak harness.

    A scenario is a deterministic schedule of overlapping fault phases
    over a span of simulated time.  This module is pure data — the soak
    experiment interprets the modes against a booted kernel (killing
    devices, installing fault plans, squeezing rlimits, churning
    processes) and attributes every OOM kill and SLO breach to the
    phases active when it happened. *)

type mode =
  | Device_death of { dev_name : string }
      (** kill a named swap device mid-run (drain + failover must cope) *)
  | Io_storm of { read_rate : float; write_rate : float }
      (** rate-based transient I/O errors on every disk *)
  | Pressure_spike of { spike_pages : int }
      (** an extra anonymous working set touched repeatedly *)
  | Rlimit_squeeze of { squeeze_resident : int }
      (** clamp every process' resident-page limit *)
  | Fork_churn of { churn_procs : int }
      (** spawn/exit this many extra short-lived processes per epoch *)

type phase = {
  ph_name : string;
  ph_start_us : float;
  ph_len_us : float;
  ph_modes : mode list;
}

type scenario = {
  sc_seed : int;
  sc_len_us : float;
  sc_phases : phase list;
}

val mode_name : mode -> string
val mode_detail : mode -> (string * string) list

val phase_names_at : scenario -> now_us:float -> string list
(** Names of the phases active at [now_us], in schedule order. *)

val generate : seed:int -> len_us:float -> pressure_pages:int -> scenario
(** The canonical soak schedule: warm-up, fork/exit churn, an I/O error
    storm, a memory-pressure spike, a swap-device death and an rlimit
    squeeze, overlapping so ≥3 fault modes compose, then a cool-down.
    Deterministic in [seed]; [pressure_pages] scales the spike to the
    machine. *)
