type uvn = {
  obj : Uvm_object.t;
  vnode : Vfs.Vnode.t;
  mutable has_vref : bool;
}

type Vfs.Vnode.vm_private += Uvn of uvn

let uvn_of_vnode (vn : Vfs.Vnode.t) =
  match vn.vm_private with Uvn u -> Some u | _ -> None

(* Group pages into runs of consecutive object offsets so each run is one
   clustered I/O operation. *)
let runs_of_pages pages =
  let sorted =
    List.sort
      (fun (a : Physmem.Page.t) (b : Physmem.Page.t) ->
        compare a.owner_offset b.owner_offset)
      pages
  in
  let rec go acc current = function
    | [] -> List.rev (match current with [] -> acc | c -> List.rev c :: acc)
    | (p : Physmem.Page.t) :: rest -> (
        match current with
        | [] -> go acc [ p ] rest
        | (last : Physmem.Page.t) :: _ when p.owner_offset = last.owner_offset + 1
          ->
            go acc (p :: current) rest
        | _ -> go (List.rev current :: acc) [ p ] rest)
  in
  go [] [] sorted

let make_ops sys (vnode : Vfs.Vnode.t) (uvn_ref : uvn option ref) obj =
  let physmem = Uvm_sys.physmem sys in
  let vfs = Uvm_sys.vfs sys in
  let swap = Uvm_sys.swapdev sys in
  (* Clustered read: the run of non-resident pages starting at the
     center, capped at Uvm_sys.io_cluster. *)
  let read_from_vnode ~center =
    let rec run_len k =
      if k >= Uvm_sys.io_cluster then k
      else if Uvm_object.mem_page obj ~pgno:(center + k) then k
      else run_len (k + 1)
    in
    let pages =
      List.init (max 1 (run_len 0)) (fun i ->
          Physmem.alloc physmem ~owner:(Uvm_object.Uobj_page obj)
            ~offset:(center + i) ())
    in
    Uvm_sys.pagein_file sys vnode ~start_page:center ~pager:"vnode"
      ~install:Uvm_object.adopt obj pages
  in
  let pgo_get ~center =
    let status =
      if Uvm_object.mem_page obj ~pgno:center then Ok ()
      else
        (* Swapcache first: a clean copy spilled to the fast swap tier at
           reclaim time serves the re-fault without touching the vnode. *)
        let page =
          Physmem.alloc physmem ~owner:(Uvm_object.Uobj_page obj)
            ~offset:center ()
        in
        if
          Uvm_sys.cache_fill sys ~vid:vnode.vid ~pgno:center
            ~install:Uvm_object.adopt obj page
        then Ok ()
        else begin
          Physmem.free_page physmem page;
          read_from_vnode ~center
        end
    in
    match status with
    | Error _ as e -> e
    | Ok () -> Uvm_object.got_centre obj ~center
  in
  let pgo_put pages =
    (* Attempt every run even if one fails — maximise what gets cleaned —
       then report the first failure.  Failed runs stay dirty. *)
    let runs = runs_of_pages pages in
    if pages <> [] then begin
      let batch = Array.of_list pages in
      Physmem.note_cluster physmem ~pages:batch ~n:(Array.length batch)
        ~runs:(List.length runs)
    end;
    List.fold_left
      (fun acc run ->
        match run with
        | [] -> acc
        | (first : Physmem.Page.t) :: _ -> (
            let span = Uvm_sys.span_start sys ~subsys:"pager" "pageout" in
            let r =
              Uvm_sys.write_file sys vnode ~start_page:first.owner_offset
                ~srcs:run
            in
            Uvm_sys.span_finish sys span (fun () ->
                [
                  ("pager", "vnode");
                  ("pages", string_of_int (List.length run));
                  ("result", match r with Ok () -> "ok" | Error _ -> "error");
                ]);
            match (acc, r) with Ok (), Error _ -> r | _ -> acc))
      (Ok ()) runs
  in
  (* Reclaim-time spill: a clean vnode page copied to the fast swap tier
     means the next fault on it is a cheap swap read, not a vnode read. *)
  let pgo_cache_spill (page : Physmem.Page.t) =
    if not page.Physmem.Page.dirty then
      Swap.Swaptier.cache_put swap ~vid:vnode.vid ~pgno:page.owner_offset ~page
  in
  let pgo_reference () = obj.Uvm_object.refs <- obj.Uvm_object.refs + 1 in
  let pgo_detach () =
    assert (obj.Uvm_object.refs > 0);
    obj.Uvm_object.refs <- obj.Uvm_object.refs - 1;
    if obj.Uvm_object.refs = 0 then
      (* Last mapping gone: drop the uvn's vnode reference so the vnode can
         migrate to the free LRU.  The pages stay — this *is* the unified
         cache: data persists exactly as long as the vnode does. *)
      match !uvn_ref with
      | Some uvn when uvn.has_vref ->
          uvn.has_vref <- false;
          Vfs.vrele vfs vnode
      | Some _ | None -> ()
  in
  {
    Uvm_object.pgo_name = "uvn";
    pgo_get;
    pgo_put;
    pgo_cache_spill;
    pgo_reference;
    pgo_detach;
  }

let attach sys (vnode : Vfs.Vnode.t) =
  match vnode.vm_private with
  | Uvn uvn ->
      let obj = uvn.obj in
      obj.Uvm_object.refs <- obj.Uvm_object.refs + 1;
      if not uvn.has_vref then begin
        (* Reviving a cached (unreferenced but in-core) object. *)
        Vfs.vref (Uvm_sys.vfs sys) vnode;
        uvn.has_vref <- true;
        (Uvm_sys.stats sys).Sim.Stats.obj_cache_hits <-
          (Uvm_sys.stats sys).Sim.Stats.obj_cache_hits + 1
      end;
      obj
  | _ ->
      (* First mapping of this vnode: the object is "allocated" as part of
         the vnode itself — no pager structures, no hash table entry
         (paper Figure 4). *)
      let uvn_ref = ref None in
      let obj = Uvm_object.make sys (make_ops sys vnode uvn_ref) in
      let uvn = { obj; vnode; has_vref = true } in
      uvn_ref := Some uvn;
      Vfs.vref (Uvm_sys.vfs sys) vnode;
      vnode.vm_private <- Uvn uvn;
      (Uvm_sys.stats sys).Sim.Stats.obj_cache_misses <-
        (Uvm_sys.stats sys).Sim.Stats.obj_cache_misses + 1;
      obj

let terminate sys (vnode : Vfs.Vnode.t) =
  match vnode.vm_private with
  | Uvn uvn ->
      assert (uvn.obj.Uvm_object.refs = 0);
      (* Best-effort writeback at teardown: an I/O error here cannot be
         reported to anyone, the data is simply lost (as when a real
         kernel's vnode flush hits EIO at reclaim time). *)
      (match Uvm_object.dirty_pages uvn.obj with
      | [] -> ()
      | dirty -> (
          match uvn.obj.Uvm_object.pgops.Uvm_object.pgo_put dirty with
          | Ok () | Error _ -> ()));
      Uvm_object.free_all_pages sys uvn.obj;
      Swap.Swaptier.cache_invalidate_obj (Uvm_sys.swapdev sys) ~vid:vnode.vid;
      vnode.vm_private <- Vfs.Vnode.No_vm
  | _ -> ()

let install_recycle_hook sys =
  Vfs.register_recycle_hook (Uvm_sys.vfs sys) (fun vnode -> terminate sys vnode)
