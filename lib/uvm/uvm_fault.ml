module Vmtypes = Vmiface.Vmtypes
open Uvm_map

let window sys = function
  | Vmtypes.Adv_normal -> (sys.Uvm_sys.fault_behind, sys.Uvm_sys.fault_ahead)
  | Vmtypes.Adv_random -> (0, 0)
  | Vmtypes.Adv_sequential -> (0, 2 * sys.Uvm_sys.fault_ahead)

(* Clear the needs-copy flag of [entry] (paper Figure 3, lower row).  When
   the entry holds the only reference to its amap no copying is needed at
   all; otherwise a new amap aliasing the same anons is built and write
   faults resolve at anon granularity later. *)
let amap_copy_entry sys entry =
  let npgs = entry_npages entry in
  (match entry.amap with
  | None ->
      entry.amap <- Some (Uvm_amap.create sys ~nslots:npgs);
      entry.amapoff <- 0
  | Some am ->
      if not (am.Uvm_amap.refs = 1 && not am.Uvm_amap.shared) then begin
        let fresh = Uvm_amap.copy sys am ~slotoff:entry.amapoff ~len:npgs in
        Uvm_amap.unref_range sys am ~slotoff:entry.amapoff ~len:npgs;
        entry.amap <- Some fresh;
        entry.amapoff <- 0
      end);
  entry.needs_copy <- false

(* Map a resident neighbour page read-only; never does I/O. *)
let map_neighbour map entry vpn =
  let sys = map.sys in
  match Pmap.lookup map.pmap ~vpn with
  | Some _ -> ()
  | None ->
      let page =
        match entry.amap with
        | Some am -> (
            match
              Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage))
            with
            | Some anon -> anon.Uvm_anon.page
            | None -> (
                match entry.obj with
                | Some obj ->
                    Uvm_object.find_page obj
                      ~pgno:(entry.objoff + (vpn - entry.spage))
                | None -> None))
        | None -> (
            match entry.obj with
            | Some obj ->
                Uvm_object.find_page obj
                  ~pgno:(entry.objoff + (vpn - entry.spage))
            | None -> None)
      in
      (match page with
      | Some page when not page.Physmem.Page.busy ->
          Pmap.enter map.pmap ~vpn ~page
            ~prot:(Pmap.Prot.remove_write entry.prot)
            ~wired:false;
          (Uvm_sys.stats sys).Sim.Stats.fault_ahead_mapped <-
            (Uvm_sys.stats sys).Sim.Stats.fault_ahead_mapped + 1;
          Physmem.note_fault_ahead_mapped (Uvm_sys.physmem sys) page
            ~madv:(Vmtypes.lifecycle_madv entry.advice)
      | Some _ | None -> ())

let fault_ahead map entry ~vpn =
  let sys = map.sys in
  let behind, ahead = window sys entry.advice in
  if behind > 0 || ahead > 0 then
    for v = vpn - behind to vpn + ahead do
      if v <> vpn && v >= entry.spage && v < entry.epage then
        map_neighbour map entry v
    done

(* Install a resolved translation while keeping the mapping's wire
   accounting attached to the frame the pmap actually maps.  mlock
   wirings are recorded in [entry.wired] and carried by the mapped
   frame's wire count; when resolution yields a different frame (COW,
   loan displacement, shared-amap replacement) those wirings must move
   with the translation, or a later munlock would unwire a frame that no
   longer carries them.  Re-entering the same frame must preserve an
   existing wired flag even on a plain fault, or the wirings would
   become invisible to the next displacement. *)
(* Snapshot of the translation a fault is about to displace, taken
   before any anon/amap surgery: unref of a displaced anon tears down
   all its translations, ours included. *)
let pte_snapshot map ~vpn =
  match Pmap.lookup map.pmap ~vpn with
  | Some pte -> Some (pte.Pmap.page, pte.Pmap.wired)
  | None -> None

(* How many of this mapping's wirings must move from the displaced frame
   to [page].  mlock wirings are recorded in [entry.wired] and carried by
   the mapped frame's wire count, so when resolution yields a different
   frame (COW, loan displacement, shared-amap replacement) they travel
   with the translation — or a later munlock would unwire a frame that no
   longer carries them.  mlock marks the entry only after its wire faults
   complete, so during any wire fault [entry.wired] counts exactly the
   established wirings — the wiring the fault itself is creating is
   applied to the resolved frame afterwards, never moved. *)
let wirings_to_move entry ~prev ~page ~wire =
  ignore wire;
  match prev with
  | Some (old_page, true) when old_page != page -> max 0 entry.wired
  | Some _ | None -> 0

(* Detach the moving wirings from the displaced frame.  Must run before
   the amap surgery of a COW replacement: dropping the displaced anon's
   last reference frees its page, which must not still carry the
   mapping's wirings (and tears down its translations, so the snapshot
   has to be taken earlier still). *)
let unwire_displaced map ~prev ~transfer =
  match prev with
  | Some (old_page, _) ->
      for _ = 1 to transfer do
        Physmem.unwire (Uvm_sys.physmem map.sys) old_page
      done
  | None -> ()

(* Install a resolved translation, re-applying the moved wirings to the
   new frame and preserving an existing wired flag on a same-frame
   re-enter even when the fault itself is not a wiring one — otherwise
   the wirings would become invisible to the next displacement. *)
let enter_resolved map ~vpn ~page ~prot ~wire ~prev ~transfer =
  let keep =
    match prev with
    | Some (old_page, wired) -> wired && old_page == page
    | None -> false
  in
  Pmap.enter map.pmap ~vpn ~page ~prot ~wired:(wire || keep || transfer > 0);
  for _ = 1 to transfer do
    Physmem.wire (Uvm_sys.physmem map.sys) page
  done

let resolve_anon_fault map entry ~vpn ~write ~wire anon =
  let sys = map.sys in
  let physmem = Uvm_sys.physmem sys in
  let stats = Uvm_sys.stats sys in
  let am = Option.get entry.amap in
  let slot = entry.amapoff + (vpn - entry.spage) in
  match Uvm_anon.ensure_resident sys anon with
  | Error _ as e -> e
  | Ok page ->
      let prev = pte_snapshot map ~vpn in
      if write then
        if Uvm_anon.writable_in_place anon then begin
          (* Sole reference, no loans: write straight into the page — the
             optimisation BSD VM's chains cannot express (paper §5.3). *)
          stats.Sim.Stats.cow_reuses <- stats.Sim.Stats.cow_reuses + 1;
          page.Physmem.Page.dirty <- true;
          Physmem.activate physmem page;
          let transfer = wirings_to_move entry ~prev ~page ~wire in
          unwire_displaced map ~prev ~transfer;
          enter_resolved map ~vpn ~page ~prot:entry.prot ~wire ~prev ~transfer;
          Ok page
        end
        else begin
          (* Copy-on-write at anon granularity: copy into a fresh anon and
             drop one reference on the old one. *)
          let fresh = Uvm_anon.alloc sys ~zero:false in
          let fresh_page = Option.get fresh.Uvm_anon.page in
          Physmem.copy_data physmem ~src:page ~dst:fresh_page;
          Physmem.note_fault_in physmem fresh_page
            ~fill:Sim.Lifecycle.Fill_cow;
          stats.Sim.Stats.cow_copies <- stats.Sim.Stats.cow_copies + 1;
          let transfer = wirings_to_move entry ~prev ~page:fresh_page ~wire in
          (* A loan break on a sole-owner anon in a private amap: the
             kernel keeps the loaned frame and only the wirings its loans
             hold.  Every other wiring on it belongs to this mapping —
             including vslock's, which live on the frame alone when the
             buffer was wired before the loan — and must follow the
             translation to the fresh copy.  In a shared amap another
             sharer's wired translation may carry some of them and stays
             on the old frame, so only this entry's mlock wirings move. *)
          let transfer =
            match prev with
            | Some (old_page, true)
              when old_page == page && anon.Uvm_anon.refs = 1
                   && not am.Uvm_amap.shared ->
                page.Physmem.Page.wire_count - page.Physmem.Page.loan_count
            | Some _ | None -> transfer
          in
          unwire_displaced map ~prev ~transfer;
          (* Replacing an anon in a *shared* amap: other sharers still map the
             displaced page — shoot those translations down so they refault
             and find the new anon.  Wired translations are skipped: they
             carry the page's wire count, and their owner's entry may well
             still resolve the displaced anon through a different amap. *)
          if am.Uvm_amap.shared then
            Pmap.page_remove_unwired (Uvm_sys.pmap_ctx sys) page;
          Uvm_amap.replace sys am ~slot fresh;
          fresh_page.Physmem.Page.dirty <- true;
          Physmem.activate physmem fresh_page;
          enter_resolved map ~vpn ~page:fresh_page ~prot:entry.prot ~wire ~prev
            ~transfer;
          Ok fresh_page
        end
      else begin
        let prot =
          if Uvm_anon.writable_in_place anon && not entry.needs_copy then
            entry.prot
          else Pmap.Prot.remove_write entry.prot
        in
        Physmem.activate physmem page;
        let transfer = wirings_to_move entry ~prev ~page ~wire in
        unwire_displaced map ~prev ~transfer;
        enter_resolved map ~vpn ~page ~prot ~wire ~prev ~transfer;
        Ok page
      end

let resolve_object_fault map entry ~vpn ~write ~wire obj =
  let sys = map.sys in
  let physmem = Uvm_sys.physmem sys in
  let stats = Uvm_sys.stats sys in
  let pgno = entry.objoff + (vpn - entry.spage) in
  Uvm_sys.charge sys (Uvm_sys.costs sys).Sim.Cost_model.object_search;
  match
    obj.Uvm_object.pgops.Uvm_object.pgo_get ~center:pgno ~lo:entry.objoff
      ~hi:(entry.objoff + entry_npages entry)
  with
  | Error _ as e -> e
  | Ok resident -> (
      let page =
        match List.assoc_opt pgno resident with
        | Some page -> Some page
        | None ->
            (* pgo_get guarantees the centre page; re-check directly in case
               the pager reported a narrower window. *)
            Uvm_object.find_page obj ~pgno
      in
      match page with
      | None ->
          (* A pager that reports success but supplies no centre page is
             indistinguishable from failed backing store; deliver the typed
             error rather than panicking the kernel. *)
          Error Vmtypes.Pager_error
      | Some page ->
          let prev = pte_snapshot map ~vpn in
          if write && entry.cow then begin
            (* Promote: anonymise the page so the object stays unmodified. *)
            let am = Option.get entry.amap in
            let slot = entry.amapoff + (vpn - entry.spage) in
            let anon = Uvm_anon.alloc sys ~zero:false in
            let anon_page = Option.get anon.Uvm_anon.page in
            Physmem.copy_data physmem ~src:page ~dst:anon_page;
            Physmem.note_fault_in physmem anon_page
              ~fill:Sim.Lifecycle.Fill_cow;
            stats.Sim.Stats.cow_copies <- stats.Sim.Stats.cow_copies + 1;
            let transfer = wirings_to_move entry ~prev ~page:anon_page ~wire in
            unwire_displaced map ~prev ~transfer;
            (* Promoting into a *shared* amap changes what every sharer's
               entry resolves at this slot: sharers still mapping the
               object's page read-only would keep reading it and miss all
               writes through the new anon.  Shoot their translations down
               so they refault and find the anon. *)
            if am.Uvm_amap.shared then
              Pmap.page_remove_unwired (Uvm_sys.pmap_ctx sys) page;
            Uvm_amap.add sys am ~slot anon;
            anon_page.Physmem.Page.dirty <- true;
            Physmem.activate physmem anon_page;
            enter_resolved map ~vpn ~page:anon_page ~prot:entry.prot ~wire ~prev
              ~transfer;
            Ok anon_page
          end
          else begin
            if write then page.Physmem.Page.dirty <- true;
            let prot =
              if entry.cow then Pmap.Prot.remove_write entry.prot
              else entry.prot
            in
            Physmem.activate physmem page;
            (* Re-publish: a direct-mapped collision may have evicted
               this page's slot since insert; the locked path is where
               the hash heals. *)
            Physmem.Lookup.publish obj.Uvm_object.okey ~pgno page;
            let transfer = wirings_to_move entry ~prev ~page ~wire in
            unwire_displaced map ~prev ~transfer;
            enter_resolved map ~vpn ~page ~prot ~wire ~prev ~transfer;
            Ok page
          end)

let resolve_zero_fill map entry ~vpn ~write ~wire =
  let sys = map.sys in
  let physmem = Uvm_sys.physmem sys in
  let am = Option.get entry.amap in
  let slot = entry.amapoff + (vpn - entry.spage) in
  let anon = Uvm_anon.alloc sys ~zero:true in
  let page = Option.get anon.Uvm_anon.page in
  Physmem.note_fault_in physmem page ~fill:Sim.Lifecycle.Fill_zero;
  Uvm_amap.add sys am ~slot anon;
  if write then page.Physmem.Page.dirty <- true;
  Physmem.activate physmem page;
  let prev = pte_snapshot map ~vpn in
  let transfer = wirings_to_move entry ~prev ~page ~wire in
  unwire_displaced map ~prev ~transfer;
  enter_resolved map ~vpn ~page ~prot:entry.prot ~wire ~prev ~transfer;
  Ok page

let fault map ~vpn ~access ~wire =
  let sys = map.sys in
  let stats = Uvm_sys.stats sys in
  let costs = Uvm_sys.costs sys in
  let span = Uvm_sys.span_start sys ~subsys:"fault" "fault" in
  Uvm_sys.charge sys costs.Sim.Cost_model.fault_entry;
  stats.Sim.Stats.faults <- stats.Sim.Stats.faults + 1;
  Uvm_map.lock map;
  (* Every exit goes through [finish], which is therefore the one place
     the fault-path span is closed.  It opens before the entry charge so
     its duration is the whole fault latency. *)
  let finish r =
    Uvm_map.unlock map;
    Uvm_sys.span_finish sys span (fun () ->
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
  match Uvm_map.lookup map ~vpn with
  | None -> finish (Error Vmtypes.No_entry)
  | Some entry ->
      (* Wiring a writable COW mapping must resolve the copy now, or a
         later write fault would swap out the wired page for a copy. *)
      let write =
        access = Vmtypes.Write || (wire && entry.prot.Pmap.Prot.w && entry.cow)
      in
      (* Same reasoning one layer down: wiring a writable mapping whose
         anon cannot be written in place (shared with another amap or
         loaned out) must displace the private copy now — vslock-style
         wirings live only on the frame, so a later write fault's
         displacement would strand them on the old frame and vsunlock
         would unwire a frame that never carried them. *)
      let write =
        write
        || wire
           && entry.prot.Pmap.Prot.w
           &&
           match entry.amap with
           | Some am -> (
               match
                 Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage))
               with
               | Some anon -> not (Uvm_anon.writable_in_place anon)
               | None -> false)
           | None -> false
      in
      let wanted =
        if write then Pmap.Prot.rw
        else { Pmap.Prot.r = true; w = false; x = false }
      in
      if not (Pmap.Prot.subsumes entry.prot wanted) then
        finish (Error Vmtypes.Prot_denied)
      else begin
        (* Step 1: anonymous-layer setup. *)
        if entry.needs_copy && (write || entry.obj = None) then
          amap_copy_entry sys entry;
        if entry.amap = None && entry.obj = None then begin
          (* Zero-fill mapping faulted for the first time. *)
          entry.amap <- Some (Uvm_amap.create sys ~nslots:(entry_npages entry));
          entry.amapoff <- 0
        end;
        if write && entry.cow && entry.amap = None then begin
          (* Private object mapping about to be written: it needs an
             anonymous layer to hold the promoted page. *)
          entry.amap <- Some (Uvm_amap.create sys ~nslots:(entry_npages entry));
          entry.amapoff <- 0
        end;
        (* Step 2: two-level lookup — amap first, then object. *)
        let anon =
          match entry.amap with
          | Some am ->
              Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage))
          | None -> None
        in
        (* The per-structure data lock (amap or uvm_object) is held
           around the resolution step, nested inside the map lock —
           exactly the two-level locking of paper §4; the registry
           learns the map -> amap/object order from this nesting. *)
        let locked ~cls ~id ~mode f =
          let ls = Uvm_sys.locks sys in
          let l = Sim.Lockstat.instance ls ~cls ~id in
          Sim.Lockstat.acquire ls l ~mode;
          Fun.protect ~finally:(fun () -> Sim.Lockstat.release ls l) f
        in
        let amap_mode =
          if write then Sim.Lockstat.Write else Sim.Lockstat.Read
        in
        let resolution =
          (* RAM exhaustion anywhere below (page allocation for pagein,
             COW copy, zero fill) is a typed failure, not a crash. *)
          try
            match anon with
            | Some anon ->
                let am = Option.get entry.amap in
                locked ~cls:"amap" ~id:am.Uvm_amap.id ~mode:amap_mode
                  (fun () -> resolve_anon_fault map entry ~vpn ~write ~wire anon)
            | None -> (
                match entry.obj with
                | Some obj -> (
                    (* Lockless fast path (DESIGN.md §16): a validated
                       hit on the heuristic page hash resolves the fault
                       without taking the object lock or entering the
                       pager.  Wire faults and COW promotions still need
                       the locked path's surgery. *)
                    let pgno = entry.objoff + (vpn - entry.spage) in
                    let fast =
                      if wire || (write && entry.cow) then None
                      else Physmem.Lookup.find obj.Uvm_object.okey ~pgno
                    in
                    match fast with
                    | Some page ->
                        let physmem = Uvm_sys.physmem sys in
                        let prev = pte_snapshot map ~vpn in
                        if write then page.Physmem.Page.dirty <- true;
                        let prot =
                          if entry.cow then Pmap.Prot.remove_write entry.prot
                          else entry.prot
                        in
                        Physmem.activate physmem page;
                        let transfer =
                          wirings_to_move entry ~prev ~page ~wire
                        in
                        unwire_displaced map ~prev ~transfer;
                        enter_resolved map ~vpn ~page ~prot ~wire ~prev
                          ~transfer;
                        Ok page
                    | None ->
                        locked ~cls:"object" ~id:obj.Uvm_object.id
                          ~mode:Sim.Lockstat.Read (fun () ->
                            resolve_object_fault map entry ~vpn ~write ~wire
                              obj))
                | None ->
                    let am = Option.get entry.amap in
                    locked ~cls:"amap" ~id:am.Uvm_amap.id
                      ~mode:Sim.Lockstat.Write (fun () ->
                        resolve_zero_fill map entry ~vpn ~write ~wire))
          with Physmem.Out_of_pages -> Error Vmtypes.Out_of_memory
        in
        match resolution with
        | Error e -> finish (Error e)
        | Ok page ->
            Physmem.note_demand_fault (Uvm_sys.physmem sys) page;
            if wire then begin
              Sim.Lifecycle.note_fill
                (Physmem.lifecycle (Uvm_sys.physmem sys))
                Sim.Lifecycle.Fill_wire;
              Physmem.wire (Uvm_sys.physmem sys) page
            end;
            page.Physmem.Page.referenced <- true;
            (* Step 3: opportunistically map resident neighbours. *)
            if not wire then fault_ahead map entry ~vpn;
            finish (Ok ())
      end
