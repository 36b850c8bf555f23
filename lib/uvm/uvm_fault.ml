module Vmtypes = Vmiface.Vmtypes
open Uvm_map

(* mlock marks the entry only after its wire faults complete, and no
   other wiring marks it. *)
module Core =
  Vmiface.Fault_core.Make
    (Uvm_map)
    (struct
      let wire_marked_first = false
    end)

(* The fault-ahead window, in pages behind and ahead of the fault (one
   function each: a pair would be allocated on every fault). *)
let window_behind sys = function
  | Vmtypes.Adv_normal -> sys.Uvm_sys.fault_behind
  | Vmtypes.Adv_random | Vmtypes.Adv_sequential -> 0

let window_ahead sys = function
  | Vmtypes.Adv_normal -> sys.Uvm_sys.fault_ahead
  | Vmtypes.Adv_random -> 0
  | Vmtypes.Adv_sequential -> 2 * sys.Uvm_sys.fault_ahead

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

(* Map a resident neighbour page read-only; never does I/O.  A fault
   probes every page of its window, so the probes raise [Not_found]
   rather than build options. *)
let enter_neighbour map entry vpn (page : Physmem.Page.t) =
  if not page.busy then begin
    let sys = map.sys in
    Pmap.enter map.pmap ~vpn ~page
      ~prot:(Pmap.Prot.remove_write entry.prot)
      ~wired:false;
    (Uvm_sys.stats sys).Sim.Stats.fault_ahead_mapped <-
      (Uvm_sys.stats sys).Sim.Stats.fault_ahead_mapped + 1;
    Physmem.note_fault_ahead_mapped (Uvm_sys.physmem sys) page
      ~madv:(Vmtypes.lifecycle_madv entry.advice)
  end

let map_neighbour map entry vpn =
  match Pmap.find map.pmap ~vpn with
  | _ -> ()
  | exception Not_found -> (
      let anon =
        match entry.amap with
        | Some am ->
            Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage))
        | None -> None
      in
      match (anon, entry.obj) with
      | Some { Uvm_anon.page = Some page; _ }, _ ->
          enter_neighbour map entry vpn page
      | Some _, _ -> ()
      | None, Some obj -> (
          match
            Uvm_object.find obj ~pgno:(entry.objoff + (vpn - entry.spage))
          with
          | page -> enter_neighbour map entry vpn page
          | exception Not_found -> ())
      | None, None -> ())

let fault_ahead map entry ~vpn =
  let sys = map.sys in
  let behind = window_behind sys entry.advice
  and ahead = window_ahead sys entry.advice in
  if behind > 0 || ahead > 0 then
    for v = vpn - behind to vpn + ahead do
      if v <> vpn && v >= entry.spage && v < entry.epage then
        map_neighbour map entry v
    done

let resolve_anon_fault map entry ~vpn ~write ~wire anon =
  let sys = map.sys in
  let am = Option.get entry.amap in
  let slot = entry.amapoff + (vpn - entry.spage) in
  match Uvm_anon.ensure_resident sys anon with
  | Error _ as e -> e
  | Ok page ->
      if write then
        if Uvm_anon.writable_in_place anon then begin
          (* Sole reference, no loans: write straight into the page — the
             optimisation BSD VM's chains cannot express (paper §5.3). *)
          let stats = Uvm_sys.stats sys in
          stats.Sim.Stats.cow_reuses <- stats.Sim.Stats.cow_reuses + 1;
          page.Physmem.Page.dirty <- true;
          Core.install map entry ~vpn page ~prot:entry.prot ~wire;
          Ok page
        end
        else begin
          (* Copy-on-write at anon granularity: copy into a fresh anon and
             drop one reference on the old one. *)
          let fresh = Uvm_anon.alloc sys ~zero:false in
          let fresh_page = Option.get fresh.Uvm_anon.page in
          Core.cow_copy map ~src:page fresh_page;
          fresh_page.Physmem.Page.dirty <- true;
          (* A loan break on a sole-owner anon in a private amap: the
             kernel keeps the loaned frame and only the wirings its loans
             hold.  Every other wiring on it belongs to this mapping —
             including vslock's, which live on the frame alone when the
             buffer was wired before the loan — and must follow the
             translation to the fresh copy.  In a shared amap another
             sharer's wired translation may carry some of them and stays
             on the old frame, so only this entry's mlock wirings move. *)
          let loan_break =
            if anon.Uvm_anon.refs = 1 && not am.Uvm_amap.shared then Some page
            else None
          in
          Core.install map entry ~vpn fresh_page ~prot:entry.prot ~wire
            ?loan_break ~surgery:(fun () ->
              (* Replacing an anon in a *shared* amap: other sharers still
                 map the displaced page — shoot those translations down so
                 they refault and find the new anon.  Wired translations
                 are skipped: they carry the page's wire count, and their
                 owner's entry may well still resolve the displaced anon
                 through a different amap. *)
              if am.Uvm_amap.shared then
                Pmap.page_remove_unwired (Uvm_sys.pmap_ctx sys) page;
              Uvm_amap.replace sys am ~slot fresh);
          Ok fresh_page
        end
      else begin
        let prot =
          if Uvm_anon.writable_in_place anon && not entry.needs_copy then
            entry.prot
          else Pmap.Prot.remove_write entry.prot
        in
        Core.install map entry ~vpn page ~prot ~wire;
        Ok page
      end

(* Map an object's own page: writable only through a shared mapping, so
   a write to a private one still faults and promotes. *)
let install_object_page map entry ~vpn ~write ~wire page =
  if write then page.Physmem.Page.dirty <- true;
  let prot =
    if entry.cow then Pmap.Prot.remove_write entry.prot else entry.prot
  in
  Core.install map entry ~vpn page ~prot ~wire;
  Ok page

let resolve_object_fault map entry ~vpn ~write ~wire obj =
  let sys = map.sys in
  let pgno = entry.objoff + (vpn - entry.spage) in
  Uvm_sys.charge sys (Uvm_sys.costs sys).Sim.Cost_model.object_search;
  match obj.Uvm_object.pgops.Uvm_object.pgo_get ~center:pgno with
  | Error _ as e -> e
  | Ok page ->
      if write && entry.cow then begin
        (* Promote: anonymise the page so the object stays unmodified. *)
        let am = Option.get entry.amap in
        let slot = entry.amapoff + (vpn - entry.spage) in
        let anon = Uvm_anon.alloc sys ~zero:false in
        let anon_page = Option.get anon.Uvm_anon.page in
        Core.cow_copy map ~src:page anon_page;
        anon_page.Physmem.Page.dirty <- true;
        Core.install map entry ~vpn anon_page ~prot:entry.prot ~wire
          ~surgery:(fun () ->
            (* Promoting into a *shared* amap changes what every
               sharer's entry resolves at this slot: sharers still
               mapping the object's page read-only would keep reading
               it and miss all writes through the new anon.  Shoot
               their translations down so they refault and find the
               anon. *)
            if am.Uvm_amap.shared then
              Pmap.page_remove_unwired (Uvm_sys.pmap_ctx sys) page;
            Uvm_amap.add sys am ~slot anon);
        Ok anon_page
      end
      else begin
        (* Re-publish: a direct-mapped collision may have evicted
           this page's slot since insert; the locked path is where
           the hash heals. *)
        Physmem.Lookup.publish obj.Uvm_object.okey ~pgno page;
        install_object_page map entry ~vpn ~write ~wire page
      end

let resolve_zero_fill map entry ~vpn ~write ~wire am =
  let sys = map.sys in
  let slot = entry.amapoff + (vpn - entry.spage) in
  let anon = Uvm_anon.alloc sys ~zero:true in
  let page = Option.get anon.Uvm_anon.page in
  Physmem.note_fault_in (Uvm_sys.physmem sys) page
    ~fill:Sim.Lifecycle.Fill_zero;
  Uvm_amap.add sys am ~slot anon;
  if write then page.Physmem.Page.dirty <- true;
  Core.install map entry ~vpn page ~prot:entry.prot ~wire;
  Ok page

(* Wiring a writable mapping whose anon cannot be written in place
   (shared with another amap or loaned out) must displace the private
   copy now — the COW reasoning of the core, one layer down: vslock-style
   wirings live only on the frame, so a later write fault's displacement
   would strand them on the old frame and vsunlock would unwire a frame
   that never carried them. *)
let forces_write _map entry ~vpn =
  match entry.amap with
  | Some am -> (
      match Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage)) with
      | Some anon -> not (Uvm_anon.writable_in_place anon)
      | None -> false)
  | None -> false

let resolve map entry ~vpn ~write ~wire =
  let sys = map.sys in
  (* Step 1: anonymous-layer setup. *)
  if entry.needs_copy && (write || entry.obj = None) then
    amap_copy_entry sys entry;
  if entry.amap = None && (entry.obj = None || (write && entry.cow)) then begin
    (* A zero-fill mapping faulted for the first time, or a private
       object mapping about to be written: it needs an anonymous layer
       to hold the new or promoted page. *)
    entry.amap <- Some (Uvm_amap.create sys ~nslots:(entry_npages entry));
    entry.amapoff <- 0
  end;
  (* Step 2: two-level lookup — amap first, then object, each under its
     own data lock. *)
  let anon =
    match entry.amap with
    | Some am -> Uvm_amap.lookup am ~slot:(entry.amapoff + (vpn - entry.spage))
    | None -> None
  in
  match anon with
  | Some anon ->
      let am = Option.get entry.amap in
      Core.locked map ~handle:Uvm_amap.lock_handle am
        ~mode:(if write then Sim.Lockstat.Write else Sim.Lockstat.Read)
        resolve_anon_fault entry ~vpn ~write ~wire anon
  | None -> (
      match entry.obj with
      | Some obj -> (
          (* Lockless fast path (DESIGN.md §16): a validated hit on the
             heuristic page hash resolves the fault without taking the
             object lock or entering the pager.  Wire faults and COW
             promotions still need the locked path's surgery. *)
          let pgno = entry.objoff + (vpn - entry.spage) in
          let fast =
            if wire || (write && entry.cow) then None
            else Physmem.Lookup.find obj.Uvm_object.okey ~pgno
          in
          match fast with
          | Some page -> install_object_page map entry ~vpn ~write ~wire page
          | None ->
              Core.locked map ~handle:Uvm_object.lock_handle obj
                ~mode:Sim.Lockstat.Read resolve_object_fault entry ~vpn ~write
                ~wire obj)
      | None ->
          let am = Option.get entry.amap in
          Core.locked map ~handle:Uvm_amap.lock_handle am
            ~mode:Sim.Lockstat.Write resolve_zero_fill entry ~vpn ~write ~wire
            am)

(* Step 3 runs in the core once the frame is referenced: opportunistically
   map resident neighbours. *)
let fault map ~vpn ~access ~wire =
  Core.fault map ~vpn ~access ~wire ~forces_write ~resolve ~ahead:fault_ahead
