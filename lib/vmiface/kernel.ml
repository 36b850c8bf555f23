(** Helpers both kernels' global state ([Uvm_sys], [Bsd_sys]) shares,
    written once over {!Machine.t}: substrate accessors, the kernel id
    supply, span instrumentation and the I/O retry policy.  A kernel's
    state record keeps only its own fields and includes {!Make}. *)

(* The resilience policy: a transient I/O error is retried up to
   [io_retries] times with exponential backoff from [io_backoff_us]
   charged to the simulated clock.  Both kernels use the same policy, so
   error handling stays apples-to-apples under a shared fault plan. *)
let io_retries = 3
let io_backoff_us = 200.0

module Make (K : sig
  type t

  val mach : t -> Machine.t
end) =
struct
  let io_retries = io_retries
  let io_backoff_us = io_backoff_us
  let costs t = (K.mach t).Machine.costs
  let stats t = (K.mach t).Machine.stats
  let physmem t = (K.mach t).Machine.physmem
  let locks t = (K.mach t).Machine.locks
  let swapdev t = (K.mach t).Machine.swap
  let vfs t = (K.mach t).Machine.vfs
  let pmap_ctx t = (K.mach t).Machine.pmap_ctx
  let charge t us = Machine.charge (K.mach t) us
  let charge_struct_alloc t = charge t (costs t).Sim.Cost_model.struct_alloc

  let fresh_id t =
    let m = K.mach t in
    m.Machine.next_kernel_id <- m.Machine.next_kernel_id + 1;
    m.Machine.next_kernel_id

  (* Instrumentation (see Sim.Span): each cut point opens one span and
     closes it with a detail thunk, forced only when the collector is on,
     so an untraced run pays one boolean check and builds no strings.
     Both kernels use the same span names, so their traces compare side
     by side. *)
  let span_start t ~subsys name = Machine.span_start (K.mach t) ~subsys name
  let span_finish t sp detail = Machine.span_finish (K.mach t) sp detail

  (* Run a fallible I/O action under the retry policy: transient errors
     are retried with backoff; permanent errors (and exhaustion of the
     budget) surface to the caller. *)
  let retry_transient t f =
    let rec go attempt =
      match f () with
      | Ok _ as ok -> ok
      | Error e -> (
          match e.Sim.Fault_plan.severity with
          | Sim.Fault_plan.Transient when attempt < io_retries ->
              charge t (io_backoff_us *. (2.0 ** float_of_int attempt));
              go (attempt + 1)
          | _ -> Error e)
    in
    go 0
end
