(** The BSD VM page-fault routine.

    Most of its work is object-chain management (paper §5.4): allocate a
    shadow object when needs-copy is set — even on read faults of private
    mappings, where it is unnecessary (paper Table 3 note) — then walk the
    shadow chain for the page, copy it up on write, and attempt a collapse.
    There is no fault-ahead: exactly one page is mapped per fault
    (paper Table 2). *)

module Vmtypes = Vmiface.Vmtypes
open Vm_map

(* Clear needs-copy by interposing a shadow object between the entry and
   its current object (paper Figure 3, upper row). *)
let clear_needs_copy sys entry =
  let backing =
    match entry.obj with
    | Some o -> o
    | None -> invalid_arg "vm_fault: needs-copy entry without object"
  in
  let shadow = Vm_object.alloc_shadow sys ~backing ~offset:entry.objoff in
  entry.obj <- Some shadow;
  entry.objoff <- 0;
  entry.needs_copy <- false

(* mlock wirings are recorded in [entry.wired] and carried by the mapped
   frame's wire count.  When a fault resolves to a different frame than
   the one currently mapped (COW copy-up, replacement after reclaim),
   those wirings must travel with the translation — or a later munlock
   unwires a frame that no longer carries them.  Same discipline as
   UVM's fault routine. *)
let pte_snapshot map ~vpn =
  match Pmap.lookup map.Vm_map.pmap ~vpn with
  | Some pte -> Some (pte.Pmap.page, pte.Pmap.wired)
  | None -> None

(* [entry.wired] also counts the wiring this very fault establishes when
   it is a wire-fault (mark_wired runs before wire_pages), but that one
   has not been applied to any frame yet: only previously established
   wirings move. *)
let wirings_to_move (entry : Vm_map.entry) ~prev ~page ~wire =
  match prev with
  | Some (old_page, true) when old_page != page ->
      max 0 (entry.Vm_map.wired - if wire then 1 else 0)
  | Some _ | None -> 0

let unwire_displaced sys ~prev ~transfer =
  match prev with
  | Some (old_page, _) ->
      for _ = 1 to transfer do
        Physmem.unwire (Bsd_sys.physmem sys) old_page
      done
  | None -> ()

(* Install a resolved translation, re-applying moved wirings to the new
   frame and preserving an existing wired flag on a same-frame re-enter
   even when the fault itself is not a wiring one. *)
let enter_resolved map ~vpn ~page ~prot ~wire ~prev ~transfer =
  let keep =
    match prev with
    | Some (old_page, wired) -> wired && old_page == page
    | None -> false
  in
  Pmap.enter map.Vm_map.pmap ~vpn ~page ~prot
    ~wired:(wire || keep || transfer > 0);
  for _ = 1 to transfer do
    Physmem.wire (Bsd_sys.physmem map.Vm_map.sys) page
  done

let fault map ~vpn ~access ~wire =
  let sys = map.sys in
  let stats = Bsd_sys.stats sys in
  let costs = Bsd_sys.costs sys in
  let span = Bsd_sys.span_start sys ~subsys:"fault" "fault" in
  Bsd_sys.charge sys costs.Sim.Cost_model.fault_entry;
  stats.Sim.Stats.faults <- stats.Sim.Stats.faults + 1;
  Vm_map.lock map;
  (* Every exit goes through [finish]: one place to close the fault-path
     span, with the same shape as UVM's so traces compare.  It opens
     before the entry charge so its duration is the whole fault
     latency. *)
  let finish r =
    Vm_map.unlock map;
    Bsd_sys.span_finish sys span (fun () ->
        [
          ("vpn", string_of_int vpn);
          ( "access",
            match access with Vmtypes.Read -> "read" | Vmtypes.Write -> "write"
          );
          ( "result",
            match r with
            | Ok () -> "ok"
            | Error e -> Vmtypes.string_of_fault_error e );
        ]);
    r
  in
  match Vm_map.lookup map ~vpn with
  | None -> finish (Error Vmtypes.No_entry)
  | Some entry ->
      let write =
        access = Vmtypes.Write || (wire && entry.prot.Pmap.Prot.w && entry.cow)
      in
      let wanted =
        if write then Pmap.Prot.rw
        else { Pmap.Prot.r = true; w = false; x = false }
      in
      if not (Pmap.Prot.subsumes entry.prot wanted) then
        finish (Error Vmtypes.Prot_denied)
      else begin
        (* BSD clears needs-copy on *any* fault of a COW mapping, paying
           for a shadow object even when only reading. *)
        if entry.cow && entry.needs_copy then clear_needs_copy sys entry;
        let first_obj =
          match entry.obj with
          | Some o -> o
          | None -> invalid_arg "vm_fault: BSD entry without object"
        in
        let off = entry.objoff + (vpn - entry.spage) in
        let physmem = Bsd_sys.physmem sys in
        (* Taken before resolution: a wired translation survives any
           pageout the resolution's allocations may trigger, and only
           wired previous frames matter to the transfer logic. *)
        let prev = pte_snapshot map ~vpn in
        (* The top object's lock is held across chain resolution, nested
           inside the map lock — the registry learns the map -> object
           order (and object -> pagequeue/swap below it) from this. *)
        let locked f =
          let ls = Bsd_sys.locks sys in
          let l =
            Sim.Lockstat.instance ls ~cls:"object" ~id:first_obj.Vm_object.id
          in
          Sim.Lockstat.acquire ls l
            ~mode:(if write then Sim.Lockstat.Write else Sim.Lockstat.Read);
          Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls l) f
        in
        let resolution =
          (* Both pagein I/O errors and RAM exhaustion surface as typed
             failures, mirroring UVM's fault routine. *)
          try
            (* Lockless fast path (DESIGN.md §16): a validated hit on
               the heuristic page hash is exactly the depth-0 resident
               case — the page lives in the top object, where write
               access needs no copy-up — so the object lock and the
               chain walk are skipped.  Wire faults keep the locked
               path. *)
            match
              if wire then None
              else Physmem.Lookup.find first_obj.Vm_object.okey ~pgno:off
            with
            | Some page ->
                if write then page.Physmem.Page.dirty <- true;
                Physmem.activate physmem page;
                let transfer = wirings_to_move entry ~prev ~page ~wire in
                unwire_displaced sys ~prev ~transfer;
                enter_resolved map ~vpn ~page ~prot:entry.prot ~wire ~prev
                  ~transfer;
                Ok page
            | None -> (
            locked @@ fun () ->
            match Vm_object.find_in_chain sys first_obj ~off ~depth:0 with
            | Error _ as e -> e
            | Ok (Some (owner, _, page, depth)) ->
                if depth = 0 then begin
                  (* Page already in the top object: ours to use.
                     Re-publish in case a direct-mapped collision
                     evicted its lookup slot since insert. *)
                  if write then page.Physmem.Page.dirty <- true;
                  Physmem.activate physmem page;
                  Physmem.Lookup.publish first_obj.Vm_object.okey ~pgno:off
                    page;
                  let transfer = wirings_to_move entry ~prev ~page ~wire in
                  unwire_displaced sys ~prev ~transfer;
                  enter_resolved map ~vpn ~page ~prot:entry.prot ~wire ~prev
                    ~transfer;
                  Ok page
                end
                else if write then begin
                  (* Copy the page up to the first object, then try to
                     collapse the chain (extra work on every COW fault). *)
                  let fresh =
                    Physmem.alloc physmem
                      ~owner:(Vm_object.Obj_page first_obj) ~offset:off ()
                  in
                  Physmem.copy_data physmem ~src:page ~dst:fresh;
                  Physmem.note_fault_in physmem fresh
                    ~fill:Sim.Lifecycle.Fill_cow;
                  stats.Sim.Stats.cow_copies <- stats.Sim.Stats.cow_copies + 1;
                  (* The copy-up changes what any map entry whose chain
                     starts at [first_obj] resolves for this offset.  Other
                     processes sharing [first_obj] may still map the deeper
                     page — remove those translations so they refault and
                     find the copy.  Unrelated mappers of the deeper page
                     just refault and re-resolve the same page; wired
                     translations are skipped (they carry the wire count
                     and their own chains still resolve the deeper page). *)
                  Pmap.page_remove_unwired (Bsd_sys.pmap_ctx sys) page;
                  Vm_object.insert_page first_obj ~pgno:off fresh;
                  fresh.Physmem.Page.dirty <- true;
                  Physmem.activate physmem fresh;
                  let transfer =
                    wirings_to_move entry ~prev ~page:fresh ~wire
                  in
                  unwire_displaced sys ~prev ~transfer;
                  enter_resolved map ~vpn ~page:fresh ~prot:entry.prot ~wire
                    ~prev ~transfer;
                  Vm_object.collapse sys first_obj;
                  ignore owner;
                  Ok fresh
                end
                else begin
                  (* Read from an underlying object: map read-only so a later
                     write still faults. *)
                  Physmem.activate physmem page;
                  let transfer = wirings_to_move entry ~prev ~page ~wire in
                  unwire_displaced sys ~prev ~transfer;
                  enter_resolved map ~vpn ~page
                    ~prot:(Pmap.Prot.remove_write entry.prot)
                    ~wire ~prev ~transfer;
                  Ok page
                end
            | Ok None ->
                (* Chain exhausted: zero-fill in the first object. *)
                let fresh =
                  Physmem.alloc physmem ~zero:true
                    ~owner:(Vm_object.Obj_page first_obj) ~offset:off ()
                in
                Physmem.note_fault_in physmem fresh
                  ~fill:Sim.Lifecycle.Fill_zero;
                Vm_object.insert_page first_obj ~pgno:off fresh;
                if write then fresh.Physmem.Page.dirty <- true;
                Physmem.activate physmem fresh;
                let transfer = wirings_to_move entry ~prev ~page:fresh ~wire in
                unwire_displaced sys ~prev ~transfer;
                enter_resolved map ~vpn ~page:fresh ~prot:entry.prot ~wire
                  ~prev ~transfer;
                Ok fresh)
          with Physmem.Out_of_pages -> Error Vmtypes.Out_of_memory
        in
        match resolution with
        | Error e -> finish (Error e)
        | Ok page ->
            Physmem.note_demand_fault physmem page;
            if wire then begin
              Sim.Lifecycle.note_fill
                (Physmem.lifecycle physmem)
                Sim.Lifecycle.Fill_wire;
              Physmem.wire physmem page
            end;
            page.Physmem.Page.referenced <- true;
            finish (Ok ())
      end
