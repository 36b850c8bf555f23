include Vmiface.Map_core.Make (struct
  type sys = Uvm_sys.t
  type obj = Uvm_object.t
  type amap = Uvm_amap.t

  let name = "Uvm_map"
  let mach (sys : sys) = sys.Uvm_sys.mach
  let obj_reference o = o.Uvm_object.pgops.Uvm_object.pgo_reference ()
  let amap_splitref = Uvm_amap.splitref
  let amap_nslots am = am.Uvm_amap.nslots
  let relookup = false
end)

(* Can [e] absorb an adjacent allocation with these attributes?  Only
   object-less, amap-less entries merge: they carry no offsets that could
   go out of sync (this is the kernel-map merging that keeps UVM's kernel
   entry count low, §3.2). *)
let can_merge e ~prot ~maxprot ~inh ~advice ~cow ~needs_copy =
  e.obj = None
  && (match e.amap with
     | None -> true
     | Some am ->
         (* The entry's slice must be extendable in place (amap_extend). *)
         am.Uvm_amap.refs = 1 && (not am.Uvm_amap.shared)
         && am.Uvm_amap.ppref = None
         && e.amapoff + entry_npages e = am.Uvm_amap.nslots)
  && Pmap.Prot.equal e.prot prot
  && Pmap.Prot.equal e.maxprot maxprot
  && e.inh = inh && e.advice = advice && e.wired = 0 && e.cow = cow
  && e.needs_copy = needs_copy

let insert t ~spage ~npages ~obj ~objoff ~prot ~maxprot ~inh ~advice ~cow
    ~needs_copy ~merge =
  if npages < 1 then invalid_arg "Uvm_map.insert: npages must be >= 1";
  lock t;
  let epage = spage + npages in
  if spage < t.lo || epage > t.hi then begin
    unlock t;
    invalid_arg "Uvm_map.insert: out of map bounds"
  end;
  (* Find the insertion point and check for overlap in one walk. *)
  let prev, overlapping = search t ~from:t.first ~vpn:spage in
  let overlaps =
    overlapping <> None
    ||
    match prev with
    | Some p when p.epage > spage -> true
    | _ -> (
        let nxt = match prev with Some p -> p.next | None -> t.first in
        match nxt with Some n -> n.spage < epage | None -> false)
  in
  if overlaps then begin
    unlock t;
    invalid_arg "Uvm_map.insert: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let merged =
    match (merge, obj, prev) with
    | true, None, Some p
      when p.epage = spage
           && can_merge p ~prot ~maxprot ~inh ~advice ~cow ~needs_copy ->
        (match p.amap with
        | Some am -> Uvm_amap.extend am ~by:npages
        | None -> ());
        p.epage <- epage;
        Some p
    | _ -> None
  in
  let e =
    match merged with
    | Some p -> p
    | None ->
        let e =
          alloc_entry t ~spage ~epage ~obj ~objoff ~amap:None ~amapoff:0 ~prot
            ~maxprot ~inh ~advice ~wired:0 ~cow ~needs_copy
        in
        link_after t prev e;
        e
  in
  t.hint <- Some e;
  unlock t;
  e

(* Drop an unlinked entry's references to its backing structures.  This is
   unmap phase 2 and runs with the map unlocked. *)
let drop_entry_refs t e =
  (match e.amap with
  | Some am ->
      Uvm_amap.unref_range t.sys am ~slotoff:e.amapoff ~len:(entry_npages e)
  | None -> ());
  (match e.obj with
  | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_detach ()
  | None -> ());
  free_entry t e

let unmap t ~spage ~npages =
  (* Phase 1: under the lock, unlink entries and invalidate translations. *)
  lock t;
  let doomed = unlink_range t ~spage ~epage:(spage + npages) in
  unlock t;
  (* Phase 2: reference drops (possibly long I/O) without the lock. *)
  List.iter (drop_entry_refs t) doomed

let destroy t = destroy_with unmap t
