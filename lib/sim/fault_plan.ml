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

let string_of_error e =
  Printf.sprintf "%s %s error%s"
    (match e.severity with Transient -> "transient" | Permanent -> "permanent")
    (match e.failed_op with Read -> "read" | Write -> "write")
    (match e.bad_slot with
    | Some s -> Printf.sprintf " at slot %d" s
    | None -> "")

type rule = {
  rule_op : op option;  (** [None] matches both directions *)
  rule_slot : int option;  (** [None] matches any (or no) slot *)
  rule_severity : severity;
  mutable skip : int;  (** matching ops to let through before firing *)
  mutable remaining : int;  (** times left to fire; [max_int] = forever *)
}

type t = {
  rng : Rng.t;
  mutable read_error_rate : float;
  mutable write_error_rate : float;
  mutable rate_severity : severity;
  mutable rules : rule list;  (** in declaration order *)
}

let create ?(seed = 0xFA17) ?(read_error_rate = 0.0) ?(write_error_rate = 0.0)
    ?(rate_severity = Transient) () =
  if read_error_rate < 0.0 || read_error_rate > 1.0 then
    invalid_arg "Fault_plan.create: read_error_rate out of [0,1]";
  if write_error_rate < 0.0 || write_error_rate > 1.0 then
    invalid_arg "Fault_plan.create: write_error_rate out of [0,1]";
  {
    rng = Rng.create ~seed;
    read_error_rate;
    write_error_rate;
    rate_severity;
    rules = [];
  }

(* Script a failure.  [after] matching operations pass before the rule
   fires; it then fires [count] times (default: once for transients,
   forever for permanent errors — bad media does not heal). *)
let fail_op t ?slot ?(after = 0) ?count op severity =
  let remaining =
    match (count, severity) with
    | Some c, _ -> c
    | None, Transient -> 1
    | None, Permanent -> max_int
  in
  t.rules <-
    t.rules
    @ [ { rule_op = Some op; rule_slot = slot; rule_severity = severity;
          skip = after; remaining } ]

let rule_matches rule ~op ~first ~count =
  (match rule.rule_op with Some o -> o = op | None -> true)
  && match rule.rule_slot with
     | Some s -> s >= first && s < first + count
     | None -> true

let rate_error t ~op ~first ~count =
  let rate =
    match op with Read -> t.read_error_rate | Write -> t.write_error_rate
  in
  if rate > 0.0 && Rng.float t.rng 1.0 < rate then
    (* Blame the first slot so permanent rate errors are recoverable
       by the same blacklist-and-reassign path as scripted ones. *)
    let bad_slot = if count = 0 then None else Some first in
    Some { failed_op = op; severity = t.rate_severity; bad_slot }
  else None

(* The first live matching rule fires (or spends one of its skips);
   the walk allocates nothing until a rule fires. *)
let rec check_rules t rules ~op ~first ~count =
  match rules with
  | [] -> rate_error t ~op ~first ~count
  | rule :: rest ->
      if rule.remaining > 0 && rule_matches rule ~op ~first ~count then
        if rule.skip > 0 then begin
          rule.skip <- rule.skip - 1;
          check_rules t rest ~op ~first ~count
        end
        else begin
          if rule.remaining <> max_int then
            rule.remaining <- rule.remaining - 1;
          Some
            {
              failed_op = op;
              severity = rule.rule_severity;
              bad_slot = rule.rule_slot;
            }
        end
      else check_rules t rest ~op ~first ~count

(* Decide the fate of one operation touching slots [first .. first +
   count - 1] ([count = 0] for slotless devices, e.g. file-system
   transfers).  Scripted rules are consulted in order; the rate check
   runs only if no rule fires, and always draws from the RNG-stream
   position determined solely by prior rate checks, so scripted rules do
   not perturb rate-based decisions. *)
let check t ~op ~first ~count = check_rules t t.rules ~op ~first ~count
