(* Reclaim a page whose data is safe elsewhere (or nowhere needed). *)
let reclaim sys (page : Physmem.Page.t) =
  Pmap.page_remove_all (Uvm_sys.pmap_ctx sys) page;
  (match page.owner with
  | Uvm_anon.Anon_page anon -> anon.Uvm_anon.page <- None
  | Uvm_object.Uobj_page obj -> Uvm_object.remove_page obj ~pgno:page.owner_offset
  | _ -> ());
  Physmem.free_page (Uvm_sys.physmem sys) page

(* Push a batch of dirty anonymous pages to swap.  UVM mode: reassign all
   their swap locations to one contiguous run and write a single cluster.

   Failure handling: writes go through [Swapdev.write_resilient], so
   transient disk errors are retried with backoff and a bad slot moves the
   whole cluster to a fresh range (the paper's reassignment machinery
   doubling as recovery).  If the write still fails — or swap is full —
   the pages simply stay dirty and in core: the reclaim pass below only
   frees pages the device confirmed clean, so degradation to clean-page
   reclaim is automatic and nothing leaks.

   Returns the number of pages that could NOT be cleaned, so the scan
   loop can stop counting them toward its reclaim quota and keep looking
   for clean pages instead. *)
let flush_anon_batch sys batch =
  match batch with
  | [] -> 0
  | _ ->
      let swapdev = Uvm_sys.swapdev sys in
      let stats = Uvm_sys.stats sys in
      let physmem = Uvm_sys.physmem sys in
      let n = List.length batch in
      let span = Uvm_sys.span_start sys ~subsys:"pdaemon" "pageout" in
      let write_at ~slot ~assign ~pages =
        match
          Swap.Swaptier.write_resilient swapdev ~retries:Uvm_sys.io_retries
            ~backoff_us:Uvm_sys.io_backoff_us ~slot ~assign ~pages
        with
        | Swap.Swaptier.Written | Swap.Swaptier.Reassigned _
        | Swap.Swaptier.No_space _ | Swap.Swaptier.Failed _ ->
            ()
      in
      let clustered =
        if Uvm_sys.aggressive_clustering sys then
          Swap.Swaptier.alloc_slots swapdev ~n
        else None
      in
      (match clustered with
      | Some base ->
          (* Dynamic swap-location reassignment at page granularity; also
             invoked by write_resilient if bad media forces a move. *)
          let assign base =
            List.iteri
              (fun i (anon, page) ->
                let old = anon.Uvm_anon.swslot in
                if old <> 0 && old <> base + i then
                  Physmem.note_reassign physmem page
                    ~dist:(abs (base + i - old));
                Uvm_anon.set_swslot sys anon (base + i))
              batch
          in
          Physmem.note_cluster physmem ~pages:(List.map snd batch) ~runs:1;
          assign base;
          write_at ~slot:base ~assign ~pages:(List.map snd batch)
      | None ->
          (if Uvm_sys.aggressive_clustering sys then
             (* Wanted one contiguous run of n and could not get it. *)
             stats.Sim.Stats.swap_full_events <-
               stats.Sim.Stats.swap_full_events + 1);
          (* BSD-style (or swap-fragmented) path: one I/O per page. *)
          Physmem.note_cluster physmem ~pages:(List.map snd batch) ~runs:n;
          List.iter
            (fun (anon, page) ->
              let slot =
                if anon.Uvm_anon.swslot <> 0 then Some anon.Uvm_anon.swslot
                else Swap.Swaptier.alloc_slots swapdev ~n:1
              in
              match slot with
              | Some slot ->
                  if anon.Uvm_anon.swslot = 0 then anon.Uvm_anon.swslot <- slot;
                  write_at ~slot
                    ~assign:(fun fresh ->
                      let old = anon.Uvm_anon.swslot in
                      if old <> 0 && old <> fresh then
                        Physmem.note_reassign physmem page
                          ~dist:(abs (fresh - old));
                      Uvm_anon.set_swslot sys anon fresh)
                    ~pages:[ page ]
              | None ->
                  (* Swap full: the page cannot be cleaned, keep it in
                     core and fall back to reclaiming clean pages. *)
                  stats.Sim.Stats.swap_full_events <-
                    stats.Sim.Stats.swap_full_events + 1)
            batch);
      Uvm_sys.span_finish sys span (fun () ->
          [
            ("pages", string_of_int n);
            ("clustered", string_of_bool (clustered <> None));
          ]);
      (* Pages that now have a swap copy are clean and reclaimable.  Pages
         that could not be cleaned (swap full, dead media) go back to the
         active queue: leaving them on the inactive queue would make its
         depth lie to the deactivation heuristic, starving the scan of
         the clean pages it could still reclaim. *)
      List.fold_left
        (fun stuck ((anon : Uvm_anon.t), (page : Physmem.Page.t)) ->
          if (not page.dirty) && anon.swslot <> 0 then begin
            reclaim sys page;
            stuck
          end
          else begin
            if page.queue = Physmem.Page.Q_inactive then
              Physmem.activate physmem page;
            stuck + 1
          end)
        0 batch

let flush_object_batches sys batches =
  let physmem = Uvm_sys.physmem sys in
  let ls = Uvm_sys.locks sys in
  Hashtbl.iter
    (fun _ (obj, pages) ->
      (* The pager already applied the retry/reassignment policy; whatever
         failed stays dirty and is reactivated below so it stops clogging
         the inactive queue. *)
      let l = Sim.Lockstat.instance ls ~cls:"object" ~id:obj.Uvm_object.id in
      Sim.Lockstat.acquire ls l ~mode:Sim.Lockstat.Write;
      (match
         Fun.protect
           ~finally:(fun () -> Sim.Lockstat.release ls l)
           (fun () -> obj.Uvm_object.pgops.Uvm_object.pgo_put pages)
       with
      | Ok () | Error _ -> ());
      List.iter
        (fun (page : Physmem.Page.t) ->
          if not page.dirty then reclaim sys page
          else if page.queue = Physmem.Page.Q_inactive then
            Physmem.activate physmem page)
        pages)
    batches

let run sys =
  (* The pagedaemon is logically its own thread: its lock is acquired as
     a root so the registry does not draw order edges from whatever the
     faulting context held when the allocator kicked the daemon. *)
  let ls = Uvm_sys.locks sys in
  let dl = Sim.Lockstat.instance ls ~cls:"pdaemon" ~id:0 in
  Sim.Lockstat.acquire_root ls dl ~mode:Sim.Lockstat.Write;
  Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls dl) @@ fun () ->
  (* The scan span opens before the drain pass so device-death migration
     shows up as time attributed to the pagedaemon on the critical path. *)
  let scan_span = Uvm_sys.span_start sys ~subsys:"pdaemon" "scan" in
  (* A dying or swapped-off device drains through the pagedaemon: migrate
     its readable slots to healthy tiers before reclaiming anything new. *)
  Swap.Swaptier.run_drain (Uvm_sys.swapdev sys);
  let physmem = Uvm_sys.physmem sys in
  let target = Physmem.freetarg physmem in
  let free0 = Physmem.free_count physmem in
  let anon_batch = ref [] in
  let obj_batches : (int, Uvm_object.t * Physmem.Page.t list) Hashtbl.t =
    Hashtbl.create 8
  in
  let batched = ref 0 in
  let scan (page : Physmem.Page.t) =
    if Physmem.free_count physmem + !batched < target then
      if page.busy || page.wire_count > 0 || page.loan_count > 0 then ()
      else if page.referenced then
        (* Second chance: recently used, give it another lap. *)
        Physmem.activate physmem page
      else
        match page.owner with
        | Uvm_anon.Anon_page anon ->
            if page.dirty || anon.Uvm_anon.swslot = 0 then begin
              anon_batch := (anon, page) :: !anon_batch;
              incr batched;
              page.dirty <- true;
              if List.length !anon_batch >= sys.Uvm_sys.pageout_cluster then begin
                (* Pages that failed to clean (swap full, bad media) no
                   longer count toward the quota: keep scanning for clean
                   pages to reclaim instead. *)
                let stuck = flush_anon_batch sys (List.rev !anon_batch) in
                batched := !batched - stuck;
                anon_batch := []
              end
            end
            else reclaim sys page
        | Uvm_object.Uobj_page obj ->
            if page.dirty then begin
              let prev =
                match Hashtbl.find_opt obj_batches obj.Uvm_object.id with
                | Some (_, pages) -> pages
                | None -> []
              in
              Hashtbl.replace obj_batches obj.Uvm_object.id (obj, page :: prev);
              incr batched
            end
            else begin
              (* About to drop a clean object page: let the pager spill a
                 copy to the swapcache so a re-fault is a fast-tier read. *)
              obj.Uvm_object.pgops.Uvm_object.pgo_cache_spill page;
              reclaim sys page
            end
        | _ ->
            (* Unowned pages on the inactive queue should not happen. *)
            assert false
  in
  List.iter scan (Physmem.inactive_pages physmem);
  ignore (flush_anon_batch sys (List.rev !anon_batch) : int);
  flush_object_batches sys obj_batches;
  (* Still short: migrate cold active pages to the inactive queue so the
     next pass can reclaim them.  Their translations are removed so reuse
     refaults and reactivates. *)
  if Physmem.free_count physmem < target then begin
    let need =
      2 * (target - Physmem.free_count physmem)
      - Physmem.inactive_count physmem
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
            Pmap.page_remove_all (Uvm_sys.pmap_ctx sys) page;
            Physmem.deactivate physmem page;
            incr moved
          end
        end)
      (Physmem.active_pages physmem)
  end;
  Uvm_sys.span_finish sys scan_span (fun () ->
      [
        ("free_before", string_of_int free0);
        ("free_after", string_of_int (Physmem.free_count physmem));
        ("target", string_of_int target);
      ])

let install sys = Physmem.set_pagedaemon (Uvm_sys.physmem sys) (fun () -> run sys)
