(** Deterministic, seedable I/O fault injection for {!Disk}.

    Real disks fail; UVM's pager API and swap-location reassignment exist
    because of that (paper §6–7).  A fault plan decides, per simulated disk
    operation, whether the transfer fails and how:

    - {b rate-based}: every read (or write) op fails independently with a
      configured probability, driven by the plan's own {!Rng} so runs are
      reproducible from the seed;
    - {b scripted}: explicit rules match an operation direction and
      optionally a specific device slot, fire after a configurable number
      of matching operations, and fire a configurable number of times.

    A [Transient] error models a recoverable condition (bus reset,
    timeout): retrying the same operation may succeed.  A [Permanent]
    error models bad media: every further access to the same slot keeps
    failing, and the caller must stop using that location. *)

type op = Read | Write

type severity = Transient | Permanent

type error = {
  failed_op : op;
  severity : severity;
  bad_slot : int option;  (** the offending device slot, when known *)
}

val string_of_error : error -> string

type t

val create :
  ?seed:int ->
  ?read_error_rate:float ->
  ?write_error_rate:float ->
  ?rate_severity:severity ->
  unit ->
  t
(** A fresh plan.  With no optional arguments it never injects anything.
    @raise Invalid_argument if an error rate is outside [0, 1]. *)

val fail_op :
  t -> ?slot:int -> ?after:int -> ?count:int -> op -> severity -> unit
(** Script a failure: the next matching operation fails — or the one after
    [after] matching operations pass — and the rule keeps firing [count]
    times (default: once for transients, forever for permanent errors;
    bad media does not heal).  With [slot], only operations touching that
    device slot match. *)

val check : t -> op:op -> first:int -> count:int -> error option
(** Decide the fate of one operation touching the [count] consecutive
    slots from [first] ([count = 0] for slotless devices, e.g.
    file-system transfers).  Scripted rules are consulted in declaration
    order; the rate check runs only when no rule fires, and its
    RNG-stream position depends solely on prior rate checks, so scripted
    rules do not perturb rate-based decisions.  A rate error blames
    [first].  Nothing is allocated unless the operation fails. *)
