(** The BSD VM pageout daemon.

    Same queue discipline as UVM's (second-chance over the inactive list,
    refill from the active list) — that part predates UVM — but every dirty
    page goes to backing store as its own I/O operation: anonymous pages
    keep fixed per-object swap slots (no reassignment, so scattered dirty
    pages cannot be clustered), and vnode pages are written one at a time
    (paper §1.1, §6; Figure 5 measures the consequence). *)

let reclaim sys (page : Physmem.Page.t) =
  Pmap.page_remove_all (Bsd_sys.pmap_ctx sys) page;
  (match page.owner with
  | Vm_object.Obj_page obj -> Vm_object.remove_page obj ~pgno:page.owner_offset
  | _ -> ());
  Physmem.free_page (Bsd_sys.physmem sys) page

(* Returns true when the page was written and may be reclaimed.  Failed
   writes (after the shared retry/blacklist-reassign policy) leave the
   page dirty in core — the daemon degrades to reclaiming clean pages. *)
let pageout_one sys (obj : Vm_object.t) (page : Physmem.Page.t) =
  (* The object's lock is held across the write-out, nested inside the
     pagedaemon lock — the registry's pdaemon -> object -> swap chain. *)
  let ls = Bsd_sys.locks sys in
  let ol = Sim.Lockstat.instance ls ~cls:"object" ~id:obj.Vm_object.id in
  Sim.Lockstat.acquire ls ol ~mode:Sim.Lockstat.Write;
  Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls ol) @@ fun () ->
  (* Every BSD pageout is a singleton cluster — the ledger records the
     size-1 distribution Figure 5 contrasts with UVM's. *)
  Physmem.note_cluster (Bsd_sys.physmem sys) ~pages:[ page ] ~runs:1;
  let span = Bsd_sys.span_start sys ~subsys:"pdaemon" "pageout" in
  (* Always one page per I/O here — the contrast with UVM's clustered
     pageout is exactly what the trace should show. *)
  let trace_pageout cleaned =
    Bsd_sys.span_finish sys span (fun () ->
        [ ("pages", "1"); ("result", if cleaned then "ok" else "error") ]);
    cleaned
  in
  trace_pageout
  @@
  match obj.Vm_object.kind with
  | Vm_object.Vnode vn -> (
      match
        Bsd_sys.retry_transient sys (fun () ->
            Vfs.write_pages (Bsd_sys.vfs sys) vn ~start_page:page.owner_offset
              ~srcs:[ page ])
      with
      | Ok () ->
          (* The file just changed under any swapcache copy of this page. *)
          Swap.Swaptier.cache_invalidate (Bsd_sys.swapdev sys)
            ~vid:vn.Vfs.Vnode.vid ~pgno:page.owner_offset;
          true
      | Error _ -> false)
  | Vm_object.Anon -> (
      let swapdev = Bsd_sys.swapdev sys in
      let stats = Bsd_sys.stats sys in
      let pgno = page.owner_offset in
      let slot =
        match Hashtbl.find_opt obj.Vm_object.swslots pgno with
        | Some slot -> Some slot
        | None ->
            let fresh = Swap.Swaptier.alloc_slots swapdev ~n:1 in
            (match fresh with
            | Some slot -> Hashtbl.replace obj.Vm_object.swslots pgno slot
            | None -> ());
            fresh
      in
      match slot with
      | Some slot -> (
          (* BSD VM keeps fixed slots, but bad media still forces a move:
             [assign] rebinds this page's slot when write_resilient
             blacklists the old one. *)
          let assign fresh =
            (match Hashtbl.find_opt obj.Vm_object.swslots pgno with
            | Some old when old <> fresh ->
                Swap.Swaptier.free_slots swapdev ~slot:old ~n:1;
                Physmem.note_reassign (Bsd_sys.physmem sys) page
                  ~dist:(abs (fresh - old))
            | Some _ | None -> ());
            Hashtbl.replace obj.Vm_object.swslots pgno fresh
          in
          match
            Swap.Swaptier.write_resilient swapdev
              ~retries:Bsd_sys.io_retries
              ~backoff_us:Bsd_sys.io_backoff_us ~slot ~assign
              ~pages:[ page ]
          with
          | Swap.Swaptier.Written | Swap.Swaptier.Reassigned _ -> true
          | Swap.Swaptier.No_space _ | Swap.Swaptier.Failed _ -> false)
      | None ->
          stats.Sim.Stats.swap_full_events <-
            stats.Sim.Stats.swap_full_events + 1;
          false (* swap exhausted *))

let run sys =
  (* The pagedaemon is logically its own thread: its lock is acquired as
     a root so the registry does not draw order edges from whatever the
     faulting context held when the allocator kicked the daemon. *)
  let ls = Bsd_sys.locks sys in
  let dl = Sim.Lockstat.instance ls ~cls:"pdaemon" ~id:0 in
  Sim.Lockstat.acquire_root ls dl ~mode:Sim.Lockstat.Write;
  Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls dl) @@ fun () ->
  (* The scan span opens before the drain pass so device-death migration
     shows up as time attributed to the pagedaemon on the critical path. *)
  let scan_span = Bsd_sys.span_start sys ~subsys:"pdaemon" "scan" in
  (* A dying or swapped-off device drains through the pagedaemon: migrate
     its readable slots to healthy tiers before reclaiming anything new. *)
  Swap.Swaptier.run_drain (Bsd_sys.swapdev sys);
  let physmem = Bsd_sys.physmem sys in
  let target = Physmem.freetarg physmem in
  let free0 = Physmem.free_count physmem in
  let scan (page : Physmem.Page.t) =
    if Physmem.free_count physmem < target then
      if page.busy || page.wire_count > 0 || page.loan_count > 0 then ()
      else if page.referenced then Physmem.activate physmem page
      else
        match page.owner with
        | Vm_object.Obj_page obj ->
            let has_backing_copy =
              match obj.Vm_object.kind with
              | Vm_object.Vnode _ -> not page.dirty
              | Vm_object.Anon ->
                  (not page.dirty)
                  && Hashtbl.mem obj.Vm_object.swslots page.owner_offset
            in
            if has_backing_copy then begin
              (* Clean vnode page about to be dropped: spill a copy to
                 the swapcache so a re-fault is a fast-tier read. *)
              (match obj.Vm_object.kind with
              | Vm_object.Vnode vn when not page.dirty ->
                  Swap.Swaptier.cache_put (Bsd_sys.swapdev sys)
                    ~vid:vn.Vfs.Vnode.vid ~pgno:page.owner_offset ~page
              | _ -> ());
              reclaim sys page
            end
            else if pageout_one sys obj page then reclaim sys page
            else
              (* Could not be cleaned (swap full, dead media): back to the
                 active queue so the inactive queue's depth keeps meaning
                 "reclaimable" to the deactivation heuristic. *)
              Physmem.activate physmem page
        | _ -> assert false
  in
  List.iter scan (Physmem.inactive_pages physmem);
  if Physmem.free_count physmem < target then begin
    let need =
      2 * (target - Physmem.free_count physmem) - Physmem.inactive_count physmem
    in
    let moved = ref 0 in
    List.iter
      (fun (page : Physmem.Page.t) ->
        if
          !moved < need && (not page.busy) && page.wire_count = 0
          && page.loan_count = 0
        then begin
          if page.referenced then page.referenced <- false
          else begin
            Pmap.page_remove_all (Bsd_sys.pmap_ctx sys) page;
            Physmem.deactivate physmem page;
            incr moved
          end
        end)
      (Physmem.active_pages physmem)
  end;
  Bsd_sys.span_finish sys scan_span (fun () ->
      [
        ("free_before", string_of_int free0);
        ("free_after", string_of_int (Physmem.free_count physmem));
        ("target", string_of_int target);
      ])

let install sys = Physmem.set_pagedaemon (Bsd_sys.physmem sys) (fun () -> run sys)
