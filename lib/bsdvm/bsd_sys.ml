(** Global state of the BSD VM baseline (the 4.4BSD / Mach-derived system
    the paper replaces).

    [obj_cache_limit] is the famous one-hundred-object cap on the VM
    object cache (paper §4, Figure 2).  [two_step_probe], when set, is
    invoked between the two steps of the historical insert-then-protect
    mapping path, letting tests observe the read-write security window
    (paper §3.1). *)

module Machine = Vmiface.Machine

(* An entry of the live-anon registry.  Objects are defined after this
   module ({!Vm_object} adds [Anon_obj]); the extensible variant breaks
   the type cycle, as [Physmem.Page.tag] does for page owners. *)
type live_obj = ..

type t = {
  mach : Machine.t;
  obj_cache_limit : int;
  io_retries : int;  (** transient I/O error retry budget *)
  io_backoff_us : float;  (** base exponential-backoff delay *)
  mutable two_step_probe : (int -> unit) option;
  mutable next_id : int;
  live_anons : (int, live_obj) Hashtbl.t;
      (** every live anonymous object of this system, by id, for the
          swap-leak audit and tier drain (paper §5.3) *)
}

let create ?(obj_cache_limit = 100) ?(io_retries = 3) ?(io_backoff_us = 200.0)
    mach =
  {
    mach;
    obj_cache_limit;
    io_retries;
    io_backoff_us;
    two_step_probe = None;
    next_id = 0;
    live_anons = Hashtbl.create 64;
  }

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let clock t = t.mach.Machine.clock
let costs t = t.mach.Machine.costs
let stats t = t.mach.Machine.stats
let physmem t = t.mach.Machine.physmem
let locks t = t.mach.Machine.locks
let swapdev t = t.mach.Machine.swap
let vfs t = t.mach.Machine.vfs
let pmap_ctx t = t.mach.Machine.pmap_ctx
let charge t us = Sim.Simclock.advance (clock t) us
let charge_struct_alloc t = charge t (costs t).Sim.Cost_model.struct_alloc

(* Instrumentation (see Sim.Span): each cut point opens one span and
   closes it with a detail thunk, forced only when the collector is on,
   so an untraced run pays one boolean check and builds no strings.
   Both kernels use the same span names, so their traces compare side by
   side. *)
let spans t = t.mach.Machine.spans

let span_start t ~subsys name =
  Sim.Span.start (spans t) ~subsys ~ts:(Sim.Simclock.now (clock t)) name

let span_finish t sp detail =
  Sim.Span.finish_with (spans t) sp ~ts:(Sim.Simclock.now (clock t)) detail

(* Same transient-retry policy as UVM's, so the error handling stays
   apples-to-apples between the two systems under a shared fault plan. *)
let retry_transient t f =
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e -> (
        match e.Sim.Fault_plan.severity with
        | Sim.Fault_plan.Transient when attempt < t.io_retries ->
            charge t (t.io_backoff_us *. (2.0 ** float_of_int attempt));
            go (attempt + 1)
        | _ -> Error e)
  in
  go 0
