module Vmtypes = Vmiface.Vmtypes
open Uvm_map

type mode = Share | Copy | Donate

(* A copy of [e] in [dst], moved to start at [spage]. *)
let copy_entry_at dst (e : entry) ~spage ~cow ~needs_copy =
  let fresh = copy_entry dst e in
  fresh.spage <- spage;
  fresh.epage <- spage + entry_npages e;
  fresh.cow <- cow;
  fresh.needs_copy <- needs_copy;
  fresh

let extract ~src ~spage ~npages ~dst mode =
  let sys = src.sys in
  let epage = spage + npages in
  Uvm_map.lock src;
  Uvm_map.clip_range src ~spage ~epage;
  let picked = Uvm_map.entries_in_range src ~spage ~epage in
  let covered = List.fold_left (fun n e -> n + entry_npages e) 0 picked in
  if covered <> npages then begin
    Uvm_map.unlock src;
    invalid_arg "Uvm_mexp.extract: source range has unmapped holes"
  end;
  let dst_base = Uvm_map.find_space dst ~npages in
  let place (e : entry) =
    let at = dst_base + (e.spage - spage) in
    match mode with
    | Share ->
        (match e.amap with
        | Some am ->
            Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e);
            am.Uvm_amap.shared <- true
        | None -> ());
        (match e.obj with
        | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
        | None -> ());
        let fresh =
          copy_entry_at dst e ~spage:at ~cow:e.cow ~needs_copy:e.needs_copy
        in
        Uvm_map.insert_entry_raw dst fresh
    | Copy ->
        (match e.amap with
        | Some am ->
            Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e)
        | None -> ());
        (match e.obj with
        | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
        | None -> ());
        (* COW snapshot both ways: write-protect the source's resident
           pages and mark both sides needs-copy (same dance as fork). *)
        if e.amap <> None then e.needs_copy <- true;
        Pmap.restrict_range src.pmap ~lo:e.spage ~hi:e.epage
          ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
        let fresh = copy_entry_at dst e ~spage:at ~cow:true ~needs_copy:true in
        Uvm_map.insert_entry_raw dst fresh
    | Donate ->
        (* Unlinking happens below, once, for all picked entries. *)
        ()
  in
  List.iter place picked;
  (match mode with
  | Donate ->
      List.iter
        (fun (e : entry) ->
          let at = dst_base + (e.spage - spage) in
          Uvm_map.unlink src e;
          Pmap.remove_range src.pmap ~lo:e.spage ~hi:e.epage;
          let npgs = entry_npages e in
          e.spage <- at;
          e.epage <- at + npgs;
          e.wired <- 0;
          Uvm_map.insert_entry_raw dst e)
        picked
  | Share | Copy -> ());
  Uvm_map.unlock src;
  (Uvm_sys.stats sys).Sim.Stats.page_transfers <-
    (Uvm_sys.stats sys).Sim.Stats.page_transfers + 1;
  dst_base

let import_anons ~dst ~anons ~prot =
  let sys = dst.sys in
  let npages = List.length anons in
  if npages = 0 then invalid_arg "Uvm_mexp.import_anons: no anons";
  let spage = Uvm_map.find_space dst ~npages in
  let entry =
    Uvm_map.insert dst ~spage ~npages ~obj:None ~objoff:0 ~prot
      ~maxprot:Pmap.Prot.rwx ~inh:Vmtypes.Inh_copy ~advice:Vmtypes.Adv_normal
      ~cow:true ~needs_copy:false ~merge:false
  in
  let am = Uvm_amap.create sys ~nslots:npages in
  List.iteri (fun i anon -> Uvm_amap.add sys am ~slot:i anon) anons;
  entry.amap <- Some am;
  entry.amapoff <- 0;
  (Uvm_sys.stats sys).Sim.Stats.page_transfers <-
    (Uvm_sys.stats sys).Sim.Stats.page_transfers + 1;
  spage
