(** The pagedaemon mechanism both kernels share (paper §6).

    The queue discipline predates UVM: a second-chance scan of the
    inactive queue that reclaims clean pages and cleans dirty ones, then
    a refill of the inactive queue from the active queue.  Everything
    here is that shared mechanism.  What the paper changes is how dirty
    pages reach backing store, and each kernel's daemon adds only that
    policy on top of {!Make}: UVM reassigns swap slots so scattered dirty
    anonymous pages leave in one clustered write ([Uvm_pdaemon]), BSD VM
    writes each page to its fixed slot, one I/O per page ([Vm_pageout]). *)

(* Whether the daemon may reclaim a page or move it between queues: not
   under I/O, not wired, not loaned out. *)
let pageable (page : Physmem.Page.t) =
  (not page.busy) && page.wire_count = 0 && page.loan_count = 0

(** What a kernel supplies to instantiate the core. *)
module type KERNEL = sig
  type sys

  val mach : sys -> Machine.t

  val detach : Physmem.Page.t -> unit
  (** Drop the owner's hold on a page whose frame is about to be freed. *)

  val swslot : Physmem.Page.t -> int
  (** The swap slot an anonymous page is bound to; 0 when it has none. *)

  val set_swslot : Physmem.Page.t -> int -> unit
  (** Bind an anonymous page to a swap slot.  Whatever it was bound to
      before is the caller's to free. *)
end

module Make (K : KERNEL) = struct
  (* One daemon's reusable pageout state, made once at boot: the page
     [write_fixed_slot] is writing, as a batch of one, and the rebinding
     [write_resilient] applies to it when bad media moves it.  A page
     write allocates neither. *)
  type daemon = {
    sys : K.sys;
    mutable single : Physmem.Page.t array;
    rebind_single : int -> unit;
  }

  (* [page] as a batch of one, in the daemon's array. *)
  let as_batch d page =
    if Array.length d.single = 0 then d.single <- [| page |]
    else d.single.(0) <- page;
    d.single

  (* Bad media moved the page to [fresh]: release its old slot (which
     retires a blacklisted one) and rebind. *)
  let rebind_single d fresh =
    let m = K.mach d.sys in
    let page = d.single.(0) in
    let old = K.swslot page in
    if old <> 0 && old <> fresh then begin
      Physmem.note_reassign m.Machine.physmem page ~dist:(abs (fresh - old));
      Swap.Swaptier.free_slots m.Machine.swap ~slot:old ~n:1
    end;
    K.set_swslot page fresh

  let create sys =
    let rec d =
      {
        sys;
        single = [||];
        rebind_single = (fun fresh -> rebind_single d fresh);
      }
    in
    d

  (* Reclaim a page whose data is safe elsewhere (or nowhere needed). *)
  let reclaim sys (page : Physmem.Page.t) =
    let m = K.mach sys in
    Pmap.page_remove_all m.Machine.pmap_ctx page;
    K.detach page;
    Physmem.free_page m.Machine.physmem page

  (* After a write attempt: a cleaned page is reclaimed.  One that could
     not be cleaned (swap full, dead media) stays in core and goes back
     to the active queue: leaving it on the inactive queue would make
     that queue's depth lie to the refill heuristic, starving the scan of
     the clean pages it could still reclaim. *)
  let settle sys (page : Physmem.Page.t) ~cleaned =
    if cleaned then reclaim sys page
    else if page.queue = Physmem.Page.Q_inactive then
      Physmem.activate (K.mach sys).Machine.physmem page

  (* Write one page to its fixed swap slot: BSD VM's anonymous pageout,
     and UVM's when it does not cluster.  A page without a slot gets one
     here.  Bad media still forces a move: [write_resilient] rebinds the
     page to the fresh slot through [rebind_single].  Returns true when
     the page was written.  If the write still fails, or swap is full,
     the page stays dirty in core. *)
  let write_fixed_slot d (page : Physmem.Page.t) =
    let m = K.mach d.sys in
    let swapdev = m.Machine.swap in
    let target =
      match K.swslot page with
      | 0 -> (
          match Swap.Swaptier.alloc_slots swapdev ~n:1 with
          | Some fresh ->
              K.set_swslot page fresh;
              fresh
          | None -> 0)
      | slot -> slot
    in
    if target = 0 then begin
      let stats = m.Machine.stats in
      stats.Sim.Stats.swap_full_events <- stats.Sim.Stats.swap_full_events + 1;
      false
    end
    else
      match
        Swap.Swaptier.write_resilient swapdev ~retries:Kernel.io_retries
          ~backoff_us:Kernel.io_backoff_us ~slot:target
          ~assign:d.rebind_single ~pages:(as_batch d page) ~n:1
      with
      | Swap.Swaptier.Written | Swap.Swaptier.Reassigned _ -> true
      | Swap.Swaptier.No_space _ | Swap.Swaptier.Failed _ -> false

  (* One daemon pass: reclaim and clean until the free target is met or
     the inactive queue is exhausted, then refill the inactive queue from
     the active queue if still short.  [visit] applies the kernel's policy
     to each pageable, unreferenced inactive page; [pending] counts pages
     the policy has queued for a batched write, which count toward the
     target; [flush] writes whatever is still queued when the scan ends. *)
  let run sys ~pending ~visit ~flush =
    let m = K.mach sys in
    (* The pagedaemon is logically its own thread: its lock is acquired as
       a root so the registry does not draw order edges from whatever the
       faulting context held when the allocator kicked the daemon. *)
    let ls = m.Machine.locks in
    let dl = Sim.Lockstat.instance ls ~cls:"pdaemon" ~id:0 in
    Sim.Lockstat.acquire_root ls dl ~mode:Sim.Lockstat.Write;
    Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls dl) @@ fun () ->
    (* The scan span opens before the drain pass so device-death migration
       shows up as time attributed to the pagedaemon on the critical path. *)
    let scan_span = Machine.span_start m ~subsys:"pdaemon" "scan" in
    (* A dying or swapped-off device drains through the pagedaemon: migrate
       its readable slots to healthy tiers before reclaiming anything new. *)
    Swap.Swaptier.run_drain m.Machine.swap;
    let physmem = m.Machine.physmem in
    let target = Physmem.freetarg physmem in
    let free0 = Physmem.free_count physmem in
    (* The scan stops at the target: nothing is visited past it, so the
       target, once met, stays met for the rest of the queue. *)
    Physmem.walk physmem Physmem.Page.Q_inactive (fun page ->
        Physmem.free_count physmem + pending () < target
        && begin
             if pageable page then
               if page.referenced then
                 (* Second chance: recently used, give it another lap. *)
                 Physmem.activate physmem page
               else visit page;
             true
           end);
    flush ();
    (* Still short: migrate cold active pages to the inactive queue so the
       next pass can reclaim them.  Their translations are removed so reuse
       refaults and reactivates. *)
    if Physmem.free_count physmem < target then begin
      let need =
        2 * (target - Physmem.free_count physmem)
        - Physmem.inactive_count physmem
      in
      let moved = ref 0 in
      Physmem.walk physmem Physmem.Page.Q_active (fun page ->
          !moved < need
          && begin
               if pageable page then
                 if page.referenced then page.referenced <- false
                 else begin
                   Pmap.page_remove_all m.Machine.pmap_ctx page;
                   Physmem.deactivate physmem page;
                   incr moved
                 end;
               true
             end)
    end;
    Machine.span_finish m scan_span (fun () ->
        [
          ("free_before", string_of_int free0);
          ("free_after", string_of_int (Physmem.free_count physmem));
          ("target", string_of_int target);
        ])

  (* Done at boot: the allocator kicks [pass] when memory is scarce. *)
  let install sys pass =
    Physmem.set_pagedaemon (K.mach sys).Machine.physmem pass
end
