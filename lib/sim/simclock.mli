(** Discrete simulated clock.

    All durations and timestamps are in microseconds, matching the units the
    paper reports (Tables 3, Figure 6).  Every VM operation in the simulator
    charges time here via {!advance}; experiments read elapsed time with
    {!now} deltas.  The clock is strictly monotone. *)

type t

type stamp = { mutable at : float }
(** A time kept in a float-only record, which OCaml stores flat: setting
    it boxes nothing, where storing to a float field of a mixed record
    boxes a fresh float every time. *)

val create : unit -> t
(** A fresh clock at time 0. *)

val now : t -> float
(** Current simulated time in microseconds. *)

val advance : t -> float -> unit
(** [advance t us] moves the clock forward by [us] microseconds.
    @raise Invalid_argument if [us] is negative or not finite. *)

val set_on_advance : t -> (unit -> unit) -> unit
(** Install a hook run after every {!advance} (replacing any previous
    one).  Used by {!Timeseries.attach} to sample on time passing; the
    hook must not advance the clock itself. *)
