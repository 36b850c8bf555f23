(** The BSD VM pageout daemon.

    The queue discipline predates UVM, and its mechanism (second-chance
    scan of the inactive list, reclaim, refill from the active list, the
    one-page fixed-slot write) lives in {!Vmiface.Pdaemon_core}, shared
    with UVM's daemon.  This module adds only BSD VM's policy: every dirty
    page goes to backing store as its own I/O operation.  Anonymous pages
    keep fixed per-object swap slots (no reassignment, so scattered dirty
    pages cannot be clustered), and vnode pages are written one at a time
    (paper §1.1, §6; Figure 5 measures the consequence). *)

module Core = Vmiface.Pdaemon_core.Make (struct
  type sys = Bsd_sys.t

  let mach sys = sys.Bsd_sys.mach

  let detach (page : Physmem.Page.t) =
    match page.owner with
    | Vm_object.Obj_page obj -> Vm_object.remove_page obj ~pgno:page.owner_offset
    | _ -> ()
end)

(* Returns true when the page was written and may be reclaimed.  Failed
   writes (after the shared retry/blacklist-reassign policy) leave the
   page dirty in core — the daemon degrades to reclaiming clean pages. *)
let pageout_one sys (obj : Vm_object.t) (page : Physmem.Page.t) =
  (* The object's lock is held across the write-out, nested inside the
     pagedaemon lock — the registry's pdaemon -> object -> swap chain. *)
  let ls = Bsd_sys.locks sys in
  let ol = Vm_object.lock_handle ls obj in
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
  | Vm_object.Vnode vn ->
      Result.is_ok
        (Bsd_sys.write_file sys vn ~start_page:page.owner_offset
           ~srcs:[ page ])
  | Vm_object.Anon ->
      (* BSD VM keeps fixed slots; only bad media moves a page. *)
      let pgno = page.owner_offset in
      Core.write_fixed_slot sys page
        ~slot:(fun () -> Hashtbl.find_opt obj.Vm_object.swslots pgno)
        ~set_slot:(Hashtbl.replace obj.Vm_object.swslots pgno)

let visit sys (page : Physmem.Page.t) =
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
        (* Clean vnode page about to be dropped: spill a copy to the
           swapcache so a re-fault is a fast-tier read. *)
        (match obj.Vm_object.kind with
        | Vm_object.Vnode vn when not page.dirty ->
            Swap.Swaptier.cache_put (Bsd_sys.swapdev sys)
              ~vid:vn.Vfs.Vnode.vid ~pgno:page.owner_offset ~page
        | _ -> ());
        Core.reclaim sys page
      end
      else Core.settle sys page ~cleaned:(pageout_one sys obj page)
  | _ -> assert false

let run sys =
  Core.run sys ~pending:(fun () -> 0) ~visit:(visit sys) ~flush:ignore

let install sys = Core.install sys run
