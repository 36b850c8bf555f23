(* The aobj's own state, embedded in its object and reached by the
   closures of its pager operations: page offset -> swap slot holding
   paged-out data. *)
type Uvm_object.ext += Swslots of (int, int) Hashtbl.t

let free_slots sys swslots =
  Hashtbl.iter
    (fun _ slot -> Swap.Swaptier.free_slots (Uvm_sys.swapdev sys) ~slot ~n:1)
    swslots;
  Hashtbl.reset swslots

let make_ops sys swslots obj =
  let physmem = Uvm_sys.physmem sys in
  let swapdev = Uvm_sys.swapdev sys in
  let stats = Uvm_sys.stats sys in
  let pgo_get ~center =
    let status =
      if Uvm_object.mem_page obj ~pgno:center then Ok ()
      else
        (* A swap pagein may draw on the kernel reserve: it is the path
           that turns swap slots back into reclaimable frames. *)
        let page =
          Physmem.alloc physmem
            ~privileged:(Hashtbl.mem swslots center)
            ~owner:(Uvm_object.Uobj_page obj) ~offset:center ()
        in
        (* The allocation may have driven the pagedaemon, whose tier
           drain can rebind this page's slot: read the binding after it. *)
        match Hashtbl.find_opt swslots center with
        | Some slot ->
            Uvm_sys.pagein_swap sys ~pager:"aobj" ~install:Uvm_object.adopt
              obj ~slot page
        | None ->
            Physmem.zero_data physmem page;
            Uvm_sys.put_in_service sys ~fill:Sim.Lifecycle.Fill_zero
              Uvm_object.adopt obj page;
            Ok ()
    in
    match status with
    | Error _ as e -> e
    | Ok () -> Uvm_object.got_centre obj ~center
  in
  (* Rebind the batch's pages to consecutive slots from [base], releasing
     any previous bindings.  Used both for the initial clustered
     assignment and by [write_resilient] when a bad slot forces the
     cluster elsewhere (freeing the old binding retires the bad slot). *)
  let rebind_cluster pages base =
    Array.iteri
      (fun i (page : Physmem.Page.t) ->
        let pgno = page.owner_offset in
        (match Hashtbl.find_opt swslots pgno with
        | Some old when old <> base + i ->
            Swap.Swaptier.free_slots swapdev ~slot:old ~n:1;
            Physmem.note_reassign physmem page ~dist:(abs (base + i - old))
        | Some _ | None -> ());
        Hashtbl.replace swslots pgno (base + i))
      pages
  in
  let write_batch_at pages base =
    let span = Uvm_sys.span_start sys ~subsys:"pager" "pageout" in
    let r =
      match
        Swap.Swaptier.write_resilient swapdev ~retries:Uvm_sys.io_retries
          ~backoff_us:Uvm_sys.io_backoff_us ~slot:base
          ~assign:(rebind_cluster pages) ~pages ~n:(Array.length pages)
      with
      | Swap.Swaptier.Written | Swap.Swaptier.Reassigned _ -> Ok ()
      | Swap.Swaptier.No_space _ -> Error Vmiface.Vmtypes.Out_of_swap
      | Swap.Swaptier.Failed _ -> Error Vmiface.Vmtypes.Pager_error
    in
    Uvm_sys.span_finish sys span (fun () ->
        [
          ("pager", "aobj");
          ("pages", string_of_int (Array.length pages));
          ("result", match r with Ok () -> "ok" | Error _ -> "error");
        ]);
    r
  in
  (* One page into its existing slot, or a freshly allocated one.  [None]
     from the allocator means swap is full: the page simply stays dirty
     and in core (graceful degradation — the pagedaemon will look for
     clean pages instead). *)
  let write_single (page : Physmem.Page.t) =
    let pgno = page.owner_offset in
    let slot =
      match Hashtbl.find_opt swslots pgno with
      | Some slot -> Some slot
      | None -> Swap.Swaptier.alloc_slots swapdev ~n:1
    in
    match slot with
    | Some slot ->
        Hashtbl.replace swslots pgno slot;
        write_batch_at [| page |] slot
    | None ->
        stats.Sim.Stats.swap_full_events <-
          stats.Sim.Stats.swap_full_events + 1;
        Error Vmiface.Vmtypes.Out_of_swap
  in
  let combine acc r =
    match (acc, r) with Error _, _ -> acc | Ok (), r -> r
  in
  let pgo_put pages =
    match pages with
    | [] -> Ok ()
    | _ when Uvm_sys.aggressive_clustering sys -> (
        (* Reassign swap locations so the whole batch is one contiguous
           write (paper §6). *)
        let batch = Array.of_list pages in
        let n = Array.length batch in
        match Swap.Swaptier.alloc_slots swapdev ~n with
        | Some base ->
            Physmem.note_cluster physmem ~pages:batch ~n ~runs:1;
            rebind_cluster batch base;
            write_batch_at batch base
        | None ->
            (* No contiguous run of n; write page-at-a-time into whatever
               slots remain. *)
            Physmem.note_cluster physmem ~pages:batch ~n ~runs:n;
            List.fold_left
              (fun acc page -> combine acc (write_single page))
              (Ok ()) pages)
    | _ ->
        (* Ablation mode: BSD-style fixed slots, one I/O per page. *)
        let batch = Array.of_list pages in
        let n = Array.length batch in
        Physmem.note_cluster physmem ~pages:batch ~n ~runs:n;
        List.fold_left
          (fun acc page -> combine acc (write_single page))
          (Ok ()) pages
  in
  let pgo_reference () = obj.Uvm_object.refs <- obj.Uvm_object.refs + 1 in
  let pgo_detach () =
    assert (obj.Uvm_object.refs > 0);
    obj.Uvm_object.refs <- obj.Uvm_object.refs - 1;
    if obj.Uvm_object.refs = 0 then begin
      (* Anonymous memory dies with its last reference. *)
      Uvm_object.free_all_pages sys obj;
      free_slots sys swslots
    end
  in
  {
    Uvm_object.pgo_name = "aobj";
    pgo_get;
    pgo_put;
    (* aobj pages already live on swap; nothing to gain from the cache. *)
    pgo_cache_spill = (fun _ -> ());
    pgo_reference;
    pgo_detach;
  }

let create sys =
  let swslots = Hashtbl.create 8 in
  let obj =
    Uvm_object.make ~ext:(Swslots swslots) sys (make_ops sys swslots)
  in
  (Uvm_sys.stats sys).Sim.Stats.objects_allocated <-
    (Uvm_sys.stats sys).Sim.Stats.objects_allocated + 1;
  Uvm_sys.charge_struct_alloc sys;
  obj

let swslots obj =
  match obj.Uvm_object.ext with
  | Swslots swslots ->
      Hashtbl.fold (fun pgno slot acc -> (pgno, slot) :: acc) swslots []
  | _ -> []

let rebind_slot obj ~pgno ~slot =
  match obj.Uvm_object.ext with
  | Swslots swslots when Hashtbl.mem swslots pgno ->
      Hashtbl.replace swslots pgno slot
  | _ -> invalid_arg "Uvm_aobj.rebind_slot: no such binding"
