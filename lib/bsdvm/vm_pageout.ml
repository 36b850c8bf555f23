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

  (* An anonymous object's pages keep fixed slots in its table. *)
  let swslot (page : Physmem.Page.t) =
    match page.owner with
    | Vm_object.Obj_page obj -> (
        match Hashtbl.find obj.Vm_object.swslots page.owner_offset with
        | slot -> slot
        | exception Not_found -> 0)
    | _ -> 0

  let set_swslot (page : Physmem.Page.t) slot =
    match page.owner with
    | Vm_object.Obj_page obj ->
        Hashtbl.replace obj.Vm_object.swslots page.owner_offset slot
    | _ -> invalid_arg "Vm_pageout.set_swslot: not an object page"
end)

(* Always one page per I/O here — the contrast with UVM's clustered
   pageout is exactly what the trace should show. *)
let written () = [ ("pages", "1"); ("result", "ok") ]
let not_written () = [ ("pages", "1"); ("result", "error") ]

(* Returns true when the page was written and may be reclaimed.  Failed
   writes (after the shared retry/blacklist-reassign policy) leave the
   page dirty in core — the daemon degrades to reclaiming clean pages. *)
let pageout d (obj : Vm_object.t) (page : Physmem.Page.t) =
  let sys = d.Core.sys in
  (* Every BSD pageout is a singleton cluster — the ledger records the
     size-1 distribution Figure 5 contrasts with UVM's. *)
  Physmem.note_cluster (Bsd_sys.physmem sys) ~pages:(Core.as_batch d page)
    ~n:1 ~runs:1;
  let span = Bsd_sys.span_start sys ~subsys:"pdaemon" "pageout" in
  let cleaned =
    match obj.Vm_object.kind with
    | Vm_object.Vnode vn ->
        Result.is_ok
          (Bsd_sys.write_file sys vn ~start_page:page.owner_offset
             ~srcs:[ page ])
    | Vm_object.Anon ->
        (* BSD VM keeps fixed slots; only bad media moves a page. *)
        Core.write_fixed_slot d page
  in
  Bsd_sys.span_finish sys span (if cleaned then written else not_written);
  cleaned

(* The object's lock is held across the write-out, nested inside the
   pagedaemon lock — the registry's pdaemon -> object -> swap chain.  An
   inactive registry records nothing, so then the object's lock is not
   even registered, as on the fault path. *)
let pageout_one d obj page =
  let ls = Bsd_sys.locks d.Core.sys in
  if not (Sim.Lockstat.active ls) then pageout d obj page
  else begin
    let ol = Vm_object.lock_handle ls obj in
    Sim.Lockstat.acquire ls ol ~mode:Sim.Lockstat.Write;
    match pageout d obj page with
    | cleaned ->
        Sim.Lockstat.release ls ol;
        cleaned
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Sim.Lockstat.release ls ol;
        Printexc.raise_with_backtrace e bt
  end

let visit d (page : Physmem.Page.t) =
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
            Swap.Swaptier.cache_put (Bsd_sys.swapdev d.Core.sys)
              ~vid:vn.Vfs.Vnode.vid ~pgno:page.owner_offset ~page
        | _ -> ());
        Core.reclaim d.Core.sys page
      end
      else Core.settle d.Core.sys page ~cleaned:(pageout_one d obj page)
  | _ -> assert false

let install sys =
  let d = Core.create sys in
  let visit = visit d in
  Core.install sys (fun () ->
      Core.run sys ~pending:(fun () -> 0) ~visit ~flush:ignore)
