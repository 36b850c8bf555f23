module Core = Vmiface.Pdaemon_core.Make (struct
  type sys = Uvm_sys.t

  let mach sys = sys.Uvm_sys.mach

  let detach (page : Physmem.Page.t) =
    match page.owner with
    | Uvm_anon.Anon_page anon -> anon.Uvm_anon.page <- None
    | Uvm_object.Uobj_page obj ->
        Uvm_object.remove_page obj ~pgno:page.owner_offset
    | _ -> ()
end)

(* Push a batch of dirty anonymous pages to swap.  UVM mode: reassign all
   their swap locations to one contiguous run and write a single cluster.

   Failure handling: writes go through [Swaptier.write_resilient], so
   transient disk errors are retried with backoff and a bad slot moves the
   whole cluster to a fresh range (the paper's reassignment machinery
   doubling as recovery).  If the write still fails — or swap is full —
   the pages simply stay dirty and in core: the settle pass below only
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
      let pages = List.map snd batch in
      let n = List.length batch in
      let span = Uvm_sys.span_start sys ~subsys:"pdaemon" "pageout" in
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
          Physmem.note_cluster physmem ~pages ~runs:1;
          assign base;
          ignore
            (Swap.Swaptier.write_resilient swapdev ~retries:Uvm_sys.io_retries
               ~backoff_us:Uvm_sys.io_backoff_us ~slot:base ~assign ~pages
              : Swap.Swaptier.write_outcome)
      | None ->
          (if Uvm_sys.aggressive_clustering sys then
             (* Wanted one contiguous run of n and could not get it. *)
             stats.Sim.Stats.swap_full_events <-
               stats.Sim.Stats.swap_full_events + 1);
          (* BSD-style (or swap-fragmented) path: one I/O per page. *)
          Physmem.note_cluster physmem ~pages ~runs:n;
          List.iter
            (fun ((anon : Uvm_anon.t), page) ->
              ignore
                (Core.write_fixed_slot sys page
                   ~slot:(fun () ->
                     if anon.swslot = 0 then None else Some anon.swslot)
                   ~set_slot:(fun slot -> anon.swslot <- slot)
                  : bool))
            batch);
      Uvm_sys.span_finish sys span (fun () ->
          [
            ("pages", string_of_int n);
            ("clustered", string_of_bool (clustered <> None));
          ]);
      (* Pages that now have a swap copy are clean and reclaimable. *)
      List.fold_left
        (fun stuck ((anon : Uvm_anon.t), (page : Physmem.Page.t)) ->
          let cleaned = (not page.dirty) && anon.swslot <> 0 in
          Core.settle sys page ~cleaned;
          if cleaned then stuck else stuck + 1)
        0 batch

let flush_object_batches sys batches =
  let ls = Uvm_sys.locks sys in
  Hashtbl.iter
    (fun _ (obj, pages) ->
      (* The pager already applied the retry/reassignment policy; whatever
         failed stays dirty and is reactivated below so it stops clogging
         the inactive queue. *)
      let l = Uvm_object.lock_handle ls obj in
      Sim.Lockstat.acquire ls l ~mode:Sim.Lockstat.Write;
      (match
         Fun.protect
           ~finally:(fun () -> Sim.Lockstat.release ls l)
           (fun () -> obj.Uvm_object.pgops.Uvm_object.pgo_put pages)
       with
      | Ok () | Error _ -> ());
      List.iter
        (fun (page : Physmem.Page.t) ->
          Core.settle sys page ~cleaned:(not page.dirty))
        pages)
    batches

let run sys =
  let anon_batch = ref [] in
  let obj_batches : (int, Uvm_object.t * Physmem.Page.t list) Hashtbl.t =
    Hashtbl.create 8
  in
  let batched = ref 0 in
  let visit (page : Physmem.Page.t) =
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
        else Core.reclaim sys page
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
          Core.reclaim sys page
        end
    | _ ->
        (* Unowned pages on the inactive queue should not happen. *)
        assert false
  in
  Core.run sys
    ~pending:(fun () -> !batched)
    ~visit
    ~flush:(fun () ->
      ignore (flush_anon_batch sys (List.rev !anon_batch) : int);
      flush_object_batches sys obj_batches)

let install sys = Core.install sys run
