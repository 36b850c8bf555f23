module Vmtypes = Vmiface.Vmtypes
open Uvm_map

let fork_shared sys child (e : entry) =
  (* Sharing needs a concrete amap both entries can reference: clear a
     deferred needs-copy now (allocating the amap if the entry has never
     faulted), as uvm_map_fork does before cloning a shared entry.
     Otherwise each side's first fault would build a private amap and the
     "shared" mapping would silently diverge. *)
  if e.needs_copy then Uvm_fault.amap_copy_entry sys e;
  (match e.amap with
  | Some am ->
      Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e);
      am.Uvm_amap.shared <- true
  | None -> ());
  (match e.obj with
  | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
  | None -> ());
  Uvm_map.insert_entry_raw child (copy_entry child e)

(* amap_cow_now: a wired entry's copy may never be deferred.  Deferral
   write-protects the parent, so the parent's next write would COW-resolve
   by swapping a fresh anon into its amap slot — stranding the *wired*
   frame (and its wire count) on the child's side, where teardown later
   frees a still-wired page.  Instead the child gets its own amap with
   every page copied at fork time.  No I/O can be needed: wiring faulted
   every page of the range in, and wired pages sit on no paging queue, so
   each one is resident — in an anon, or (never-written object ranges)
   reachable through the parent's wired translation.  The parent keeps
   writing in place: no needs-copy, no write-protect. *)
let fork_copy_wired sys parent (e : entry) (fresh : entry) =
  let physmem = Uvm_sys.physmem sys in
  let stats = Uvm_sys.stats sys in
  let len = entry_npages e in
  let copy =
    match e.amap with
    | Some am -> Uvm_amap.copy sys am ~slotoff:e.amapoff ~len
    | None -> Uvm_amap.create sys ~nslots:len
  in
  let copy_into_fresh_anon src =
    let anon = Uvm_anon.alloc sys ~zero:false in
    let dst = Option.get anon.Uvm_anon.page in
    Physmem.copy_data physmem ~src ~dst;
    stats.Sim.Stats.cow_copies <- stats.Sim.Stats.cow_copies + 1;
    dst.Physmem.Page.dirty <- true;
    Physmem.activate physmem dst;
    anon
  in
  for slot = 0 to len - 1 do
    match Uvm_amap.lookup copy ~slot with
    | Some anon when anon.Uvm_anon.refs > 1 ->
        let src =
          match anon.Uvm_anon.page with
          | Some p -> p
          | None -> invalid_arg "uvm_fork: wired anon not resident"
        in
        Uvm_amap.replace sys copy ~slot (copy_into_fresh_anon src)
    | Some _ -> ()
    | None -> (
        (* Empty slot: the wired translation maps an object page. *)
        match Pmap.lookup parent.pmap ~vpn:(e.spage + slot) with
        | Some pte -> Uvm_amap.add sys copy ~slot (copy_into_fresh_anon pte.Pmap.page)
        | None -> invalid_arg "uvm_fork: wired page not mapped")
  done;
  fresh.amap <- Some copy;
  fresh.amapoff <- 0;
  fresh.needs_copy <- false

let fork_copy sys parent child (e : entry) =
  let fresh = copy_entry child e in
  fresh.cow <- true;
  (match e.obj with
  | Some o -> o.Uvm_object.pgops.Uvm_object.pgo_reference ()
  | None -> ());
  (match e.amap with
  | _ when e.wired > 0 -> fork_copy_wired sys parent e fresh
  | None ->
      (* Nothing anonymous yet: pure needs-copy deferral. *)
      fresh.needs_copy <- true
  | Some am when am.Uvm_amap.shared ->
      (* amap_cow_now: a shared amap's in-place writes would leak into a
         deferred copy, so snapshot it at fork time. *)
      fresh.amap <-
        Some (Uvm_amap.copy sys am ~slotoff:e.amapoff ~len:(entry_npages e));
      fresh.amapoff <- 0;
      fresh.needs_copy <- false;
      Pmap.restrict_range parent.pmap ~lo:e.spage ~hi:e.epage
        ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx)
  | Some am ->
      (* Figure 3: share the amap, set needs-copy on both sides, and
         write-protect the parent's view so either side's first write
         faults. *)
      Uvm_amap.ref_range am ~slotoff:e.amapoff ~len:(entry_npages e);
      fresh.needs_copy <- true;
      e.needs_copy <- true;
      Pmap.restrict_range parent.pmap ~lo:e.spage ~hi:e.epage
        ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx));
  Uvm_map.insert_entry_raw child fresh

let fork_map parent ~child_pmap =
  let sys = parent.sys in
  let child =
    Uvm_map.create sys ~pmap:child_pmap ~lo:parent.lo ~hi:parent.hi
      ~kernel:false
  in
  Uvm_map.lock parent;
  Uvm_map.iter_entries
    (fun e ->
      match e.inh with
      | Vmtypes.Inh_none -> ()
      | Vmtypes.Inh_shared -> fork_shared sys child e
      | Vmtypes.Inh_copy -> fork_copy sys parent child e)
    parent;
  Uvm_map.unlock parent;
  child
