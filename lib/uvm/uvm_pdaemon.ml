module Core = Vmiface.Pdaemon_core.Make (struct
  type sys = Uvm_sys.t

  let mach sys = sys.Uvm_sys.mach

  let detach (page : Physmem.Page.t) =
    match page.owner with
    | Uvm_anon.Anon_page anon -> anon.Uvm_anon.page <- None
    | Uvm_object.Uobj_page obj ->
        Uvm_object.remove_page obj ~pgno:page.owner_offset
    | _ -> ()

  let swslot (page : Physmem.Page.t) =
    match page.owner with
    | Uvm_anon.Anon_page anon -> anon.Uvm_anon.swslot
    | _ -> 0

  let set_swslot (page : Physmem.Page.t) slot =
    match page.owner with
    | Uvm_anon.Anon_page anon -> anon.Uvm_anon.swslot <- slot
    | _ -> invalid_arg "Uvm_pdaemon.set_swslot: not an anon page"
end)

let anon_of (page : Physmem.Page.t) =
  match page.owner with Uvm_anon.Anon_page anon -> anon | _ -> assert false

(* The daemon's state, made once at boot.  Dirty anonymous pages wait in
   [batch] ([queued] of them, in scan order) for one clustered write;
   [rebind] is that write's swap-location reassignment, built once so a
   pageout builds no closure.  [batched] counts the pages of this pass
   queued for any write, object pages included, and [obj_batches] holds
   the dirty object pages per object. *)
type daemon = {
  core : Core.daemon;
  sys : Uvm_sys.t;
  mutable batch : Physmem.Page.t array;
  mutable queued : int;
  mutable batched : int;
  obj_batches : (int, Uvm_object.t * Physmem.Page.t list) Hashtbl.t;
  rebind : int -> unit;
}

(* Dynamic swap-location reassignment at page granularity: the batch's
   anons move to the consecutive slots from [base].  Also invoked by
   write_resilient if bad media forces a move. *)
let rebind_batch d base =
  let physmem = Uvm_sys.physmem d.sys in
  for i = 0 to d.queued - 1 do
    let page = d.batch.(i) in
    let anon = anon_of page in
    let old = anon.Uvm_anon.swslot in
    if old <> 0 && old <> base + i then
      Physmem.note_reassign physmem page ~dist:(abs (base + i - old));
    Uvm_anon.set_swslot d.sys anon (base + i)
  done

let create sys =
  let rec d =
    {
      core = Core.create sys;
      sys;
      batch = [||];
      queued = 0;
      batched = 0;
      obj_batches = Hashtbl.create 8;
      rebind = (fun base -> rebind_batch d base);
    }
  in
  d

let enqueue d page =
  if Array.length d.batch = 0 then
    d.batch <- Array.make (max 1 d.sys.Uvm_sys.pageout_cluster) page;
  d.batch.(d.queued) <- page;
  d.queued <- d.queued + 1

(* Push the batch of dirty anonymous pages to swap.  UVM mode: reassign
   all their swap locations to one contiguous run and write a single
   cluster.

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
let flush_anon_batch d =
  let n = d.queued in
  if n = 0 then 0
  else begin
    let sys = d.sys in
    let swapdev = Uvm_sys.swapdev sys in
    let stats = Uvm_sys.stats sys in
    let physmem = Uvm_sys.physmem sys in
    let pages = d.batch in
    let span = Uvm_sys.span_start sys ~subsys:"pdaemon" "pageout" in
    let clustered =
      if Uvm_sys.aggressive_clustering sys then
        Swap.Swaptier.alloc_slots swapdev ~n
      else None
    in
    (match clustered with
    | Some base ->
        Physmem.note_cluster physmem ~pages ~n ~runs:1;
        rebind_batch d base;
        ignore
          (Swap.Swaptier.write_resilient swapdev ~retries:Uvm_sys.io_retries
             ~backoff_us:Uvm_sys.io_backoff_us ~slot:base ~assign:d.rebind
             ~pages ~n
            : Swap.Swaptier.write_outcome)
    | None ->
        (if Uvm_sys.aggressive_clustering sys then
           (* Wanted one contiguous run of n and could not get it. *)
           stats.Sim.Stats.swap_full_events <-
             stats.Sim.Stats.swap_full_events + 1);
        (* BSD-style (or swap-fragmented) path: one I/O per page. *)
        Physmem.note_cluster physmem ~pages ~n ~runs:n;
        for i = 0 to n - 1 do
          ignore (Core.write_fixed_slot d.core pages.(i) : bool)
        done);
    if Sim.Span.live span then
      Uvm_sys.span_finish sys span (fun () ->
          [
            ("pages", string_of_int n);
            ("clustered", string_of_bool (clustered <> None));
          ]);
    (* Pages that now have a swap copy are clean and reclaimable. *)
    let stuck = ref 0 in
    for i = 0 to n - 1 do
      let page = pages.(i) in
      let cleaned = (not page.dirty) && (anon_of page).Uvm_anon.swslot <> 0 in
      Core.settle sys page ~cleaned;
      if not cleaned then incr stuck
    done;
    d.queued <- 0;
    !stuck
  end

(* Write an object's batch out under the object's lock.  An inactive
   registry records nothing, so then the lock is not even registered, as
   on the fault path. *)
let put_locked ls obj pages =
  let put = obj.Uvm_object.pgops.Uvm_object.pgo_put in
  if not (Sim.Lockstat.active ls) then put pages
  else begin
    let l = Uvm_object.lock_handle ls obj in
    Sim.Lockstat.acquire ls l ~mode:Sim.Lockstat.Write;
    match put pages with
    | r ->
        Sim.Lockstat.release ls l;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Sim.Lockstat.release ls l;
        Printexc.raise_with_backtrace e bt
  end

let flush_object_batches sys batches =
  let ls = Uvm_sys.locks sys in
  Hashtbl.iter
    (fun _ (obj, pages) ->
      (* The pager already applied the retry/reassignment policy; whatever
         failed stays dirty and is reactivated below so it stops clogging
         the inactive queue. *)
      (match put_locked ls obj pages with Ok () | Error _ -> ());
      List.iter
        (fun (page : Physmem.Page.t) ->
          Core.settle sys page ~cleaned:(not page.dirty))
        pages)
    batches

let visit d (page : Physmem.Page.t) =
  match page.owner with
  | Uvm_anon.Anon_page anon ->
      if page.dirty || anon.Uvm_anon.swslot = 0 then begin
        enqueue d page;
        d.batched <- d.batched + 1;
        page.dirty <- true;
        if d.queued >= d.sys.Uvm_sys.pageout_cluster then begin
          (* Pages that failed to clean (swap full, bad media) no
             longer count toward the quota: keep scanning for clean
             pages to reclaim instead. *)
          let stuck = flush_anon_batch d in
          d.batched <- d.batched - stuck
        end
      end
      else Core.reclaim d.sys page
  | Uvm_object.Uobj_page obj ->
      if page.dirty then begin
        let prev =
          match Hashtbl.find_opt d.obj_batches obj.Uvm_object.id with
          | Some (_, pages) -> pages
          | None -> []
        in
        Hashtbl.replace d.obj_batches obj.Uvm_object.id (obj, page :: prev);
        d.batched <- d.batched + 1
      end
      else begin
        (* About to drop a clean object page: let the pager spill a
           copy to the swapcache so a re-fault is a fast-tier read. *)
        obj.Uvm_object.pgops.Uvm_object.pgo_cache_spill page;
        Core.reclaim d.sys page
      end
  | _ ->
      (* Unowned pages on the inactive queue should not happen. *)
      assert false

let pass d =
  d.queued <- 0;
  d.batched <- 0;
  (* [reset] shrinks the table back to its initial size, so it iterates
     (flushes the object batches) in a fresh table's order. *)
  Hashtbl.reset d.obj_batches;
  Core.run d.sys
    ~pending:(fun () -> d.batched)
    ~visit:(visit d)
    ~flush:(fun () ->
      ignore (flush_anon_batch d : int);
      flush_object_batches d.sys d.obj_batches)

let install sys =
  let d = create sys in
  Core.install sys (fun () -> pass d)
