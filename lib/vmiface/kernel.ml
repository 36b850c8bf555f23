(** Helpers both kernels' global state ([Uvm_sys], [Bsd_sys]) shares,
    written once over {!Machine.t}: substrate accessors, the kernel id
    supply, span instrumentation, the I/O retry policy and the pager I/O
    mechanism (pagein, swapcache fill, file write-back).  A kernel's
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
  let rec retry_from t f attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e -> (
        match e.Sim.Fault_plan.severity with
        | Sim.Fault_plan.Transient when attempt < io_retries ->
            charge t (io_backoff_us *. (2.0 ** float_of_int attempt));
            retry_from t f (attempt + 1)
        | _ -> Error e)

  let retry_transient t f = retry_from t f 0

  (* -- pager I/O (paper §6) ---------------------------------------------

     The mechanism under both kernels' pagers; each kernel keeps only its
     policy (how many frames one read fills, whether swap frames may dip
     into the reserve).  A frame arrives already allocated to its owner
     and offset; [install target frame] hangs it on the owner, a static
     function so that no call builds a closure for it. *)

  let put_in_service t ~fill install target page =
    let physmem = physmem t in
    Physmem.note_fault_in physmem page ~fill;
    install target page;
    Physmem.activate physmem page

  let rec serve_all t ~fill install target = function
    | [] -> ()
    | page :: rest ->
        put_in_service t ~fill install target page;
        serve_all t ~fill install target rest

  (* One pagein: the [pager/pagein] span times the read alone.  A read
     that fails beyond the retry budget returns the untouched frames and
     a typed error: the faulting process gets its SIGBUS, the kernel
     does not panic. *)
  let pagein t ~pager ~fill ~install target frames read =
    let span = span_start t ~subsys:"pager" "pagein" in
    let r = retry_transient t read in
    if Sim.Span.live span then
      span_finish t span (fun () ->
          [
            ("pager", pager);
            ("pages", string_of_int (List.length frames));
            ("result", match r with Ok () -> "ok" | Error _ -> "error");
          ]);
    match r with
    | Ok () ->
        serve_all t ~fill install target frames;
        Ok ()
    | Error _ ->
        List.iter (Physmem.free_page (physmem t)) frames;
        let stats = stats t in
        stats.Sim.Stats.pageins_failed <- stats.Sim.Stats.pageins_failed + 1;
        Error Vmtypes.Pager_error

  (* Page [frame] in from swap [slot].  On failure the owner keeps its
     slot: the data (possibly unreadable) is still nominally there, and a
     later access may retry. *)
  let pagein_swap t ~pager ~install target ~slot frame =
    let swap = swapdev t in
    pagein t ~pager ~fill:Sim.Lifecycle.Fill_pagein ~install target [ frame ]
      (fun () -> Swap.Swaptier.read_slot swap ~slot ~dst:frame)

  (* Read [frames], the consecutive file pages from [start_page], in one
     I/O operation. *)
  let pagein_file t vn ~start_page ~pager ~install target frames =
    let vfs = vfs t in
    pagein t ~pager ~fill:Sim.Lifecycle.Fill_file ~install target frames
      (fun () -> Vfs.read_pages vfs vn ~start_page ~dsts:frames)

  (* Serve a file page's re-fault from a swapcache copy spilled at reclaim
     time; false on a miss, with [frame] untouched. *)
  let cache_fill t ~vid ~pgno ~install target frame =
    Swap.Swaptier.cache_lookup (swapdev t) ~vid ~pgno ~dst:frame
    && begin
         put_in_service t ~fill:Sim.Lifecycle.Fill_pagein install target frame;
         true
       end

  (* Write [srcs], the consecutive file pages from [start_page], back to
     the file in one I/O operation; the file then changed under any
     swapcache copies of them, which are dropped as stale.  On [Error]
     the pages stay dirty for a later sync or pageout to retry. *)
  let write_file t (vn : Vfs.Vnode.t) ~start_page ~srcs =
    let vfs = vfs t in
    match
      retry_transient t (fun () -> Vfs.write_pages vfs vn ~start_page ~srcs)
    with
    | Ok () ->
        let swap = swapdev t in
        List.iter
          (fun (page : Physmem.Page.t) ->
            Swap.Swaptier.cache_invalidate swap ~vid:vn.Vfs.Vnode.vid
              ~pgno:page.owner_offset)
          srcs;
        Ok ()
    | Error _ -> Error Vmtypes.Pager_error
end
