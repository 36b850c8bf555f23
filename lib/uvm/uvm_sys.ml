(** Global UVM state: the machine plus UVM's tunables.

    The tunables expose the paper's design knobs so the ablation benchmarks
    can turn individual UVM improvements off:
    - [fault_ahead]/[fault_behind]: the fault routine's window for mapping
      resident neighbour pages (paper default: 4 ahead, 3 behind);
    - [pageout_cluster]: how many dirty anonymous pages the pagedaemon
      groups into one reassigned-swap I/O (§6);
    - [io_cluster]: pager read clustering;
    - [aggressive_clustering]: disable to fall back to BSD-style one-page
      pageout while keeping the rest of UVM;
    - [io_retries]/[io_backoff_us]: the resilience policy — how many times
      a transient I/O error is retried and the base exponential-backoff
      delay charged to the simulated clock between attempts. *)

module Machine = Vmiface.Machine

type t = {
  mach : Machine.t;
  fault_ahead : int;
  fault_behind : int;
  pageout_cluster : int;
  io_cluster : int;
  aggressive_clustering : bool;
  io_retries : int;
  io_backoff_us : float;
  mutable next_id : int;
  (* Outstanding kernel loans (uvm_loan.to_kernel), keyed by token, so the
     auditor can census every page's loan_count against live borrowers. *)
  mutable kernel_loans : (int * Physmem.Page.t list) list;
}

let create ?(fault_ahead = 4) ?(fault_behind = 3) ?(pageout_cluster = 4)
    ?(io_cluster = 4) ?(aggressive_clustering = true) ?(io_retries = 3)
    ?(io_backoff_us = 200.0) mach =
  {
    mach;
    fault_ahead;
    fault_behind;
    pageout_cluster;
    io_cluster;
    aggressive_clustering;
    io_retries;
    io_backoff_us;
    next_id = 0;
    kernel_loans = [];
  }

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let register_kernel_loan t pages =
  let token = fresh_id t in
  t.kernel_loans <- (token, pages) :: t.kernel_loans;
  token

let unregister_kernel_loan t token =
  t.kernel_loans <- List.filter (fun (id, _) -> id <> token) t.kernel_loans

(* One (holder, frame) claim per outstanding borrowed reference, in the
   shape Check.check_loans consumes. *)
let kernel_loan_claims t =
  List.concat_map
    (fun (token, pages) ->
      List.map
        (fun (p : Physmem.Page.t) ->
          (Printf.sprintf "kernel-loan#%d" token, p.Physmem.Page.id))
        pages)
    t.kernel_loans

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

(* Run a fallible I/O action under the system's retry policy: transient
   errors are retried up to [io_retries] times with exponential backoff
   charged to the simulated clock; permanent errors (and exhaustion of the
   budget) surface to the caller. *)
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
