(** The BSD VM page-fault routine's resolution policy (paper §5.4).

    The fault mechanism — span, map lock, entry lookup, protection check,
    wiring bookkeeping and the translation install — is shared with UVM
    in {!Vmiface.Fault_core}.  What this module keeps is BSD VM's policy,
    most of it object-chain management: allocate a shadow object when
    needs-copy is set — even on read faults of private mappings, where it
    is unnecessary (paper Table 3 note) — then walk the shadow chain for
    the page, copy it up on write, and attempt a collapse.  There is no
    fault-ahead: exactly one page is mapped per fault (paper Table 2). *)

module Vmtypes = Vmiface.Vmtypes
open Vm_map

(* Every wiring marks the map before its wire faults run. *)
module Core =
  Vmiface.Fault_core.Make
    (Vm_map)
    (struct
      let wire_marked_first = true
    end)

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

(* Map a page the top object owns: ours to use, writable as the entry
   allows. *)
let install_top map entry ~vpn ~write ~wire page =
  if write then page.Physmem.Page.dirty <- true;
  Core.install map entry ~vpn page ~prot:entry.prot ~wire;
  Ok page

(* Resolve through [first_obj]'s shadow chain, its lock held. *)
let resolve_chain map entry ~vpn ~write ~wire first_obj =
  let sys = map.sys in
  let off = entry.objoff + (vpn - entry.spage) in
  let physmem = Bsd_sys.physmem sys in
  match Vm_object.find_in_chain sys first_obj ~off ~depth:0 with
  | Error _ as e -> e
  | Ok (Some (_, _, page, 0)) ->
      (* Re-publish in case a direct-mapped collision evicted the page's
         lookup slot since insert. *)
      Physmem.Lookup.publish first_obj.Vm_object.okey ~pgno:off page;
      install_top map entry ~vpn ~write ~wire page
  | Ok (Some (_, _, page, _)) when write ->
      (* Copy the page up to the first object, then try to collapse the
         chain (extra work on every COW fault). *)
      let fresh =
        Physmem.alloc physmem ~owner:(Vm_object.Obj_page first_obj)
          ~offset:off ()
      in
      Core.cow_copy map ~src:page fresh;
      (* The copy-up changes what any map entry whose chain starts at
         [first_obj] resolves for this offset.  Other processes sharing
         [first_obj] may still map the deeper page — remove those
         translations so they refault and find the copy.  Unrelated
         mappers of the deeper page just refault and re-resolve the same
         page; wired translations are skipped (they carry the wire count
         and their own chains still resolve the deeper page). *)
      Pmap.page_remove_unwired (Bsd_sys.pmap_ctx sys) page;
      Vm_object.insert_page first_obj ~pgno:off fresh;
      fresh.Physmem.Page.dirty <- true;
      Core.install map entry ~vpn fresh ~prot:entry.prot ~wire;
      Vm_object.collapse sys first_obj;
      Ok fresh
  | Ok (Some (_, _, page, _)) ->
      (* Read from an underlying object: map read-only so a later write
         still faults. *)
      Core.install map entry ~vpn page
        ~prot:(Pmap.Prot.remove_write entry.prot)
        ~wire;
      Ok page
  | Ok None ->
      (* Chain exhausted: zero-fill in the first object. *)
      let fresh =
        Physmem.alloc physmem ~zero:true ~owner:(Vm_object.Obj_page first_obj)
          ~offset:off ()
      in
      Physmem.note_fault_in physmem fresh ~fill:Sim.Lifecycle.Fill_zero;
      Vm_object.insert_page first_obj ~pgno:off fresh;
      if write then fresh.Physmem.Page.dirty <- true;
      Core.install map entry ~vpn fresh ~prot:entry.prot ~wire;
      Ok fresh

let resolve map entry ~vpn ~write ~wire =
  let sys = map.sys in
  (* BSD clears needs-copy on *any* fault of a COW mapping, paying for a
     shadow object even when only reading. *)
  if entry.cow && entry.needs_copy then clear_needs_copy sys entry;
  let first_obj =
    match entry.obj with
    | Some o -> o
    | None -> invalid_arg "vm_fault: BSD entry without object"
  in
  let off = entry.objoff + (vpn - entry.spage) in
  (* Lockless fast path (DESIGN.md §16): a validated hit on the heuristic
     page hash is exactly the depth-0 resident case — the page lives in
     the top object, where write access needs no copy-up — so the object
     lock and the chain walk are skipped.  Wire faults keep the locked
     path. *)
  match
    if wire then None
    else Physmem.Lookup.find first_obj.Vm_object.okey ~pgno:off
  with
  | Some page -> install_top map entry ~vpn ~write ~wire page
  | None ->
      (* The top object's lock is held across chain resolution; the
         registry learns the object -> pagequeue/swap order below it. *)
      Core.locked map ~handle:Vm_object.lock_handle first_obj
        ~mode:(if write then Sim.Lockstat.Write else Sim.Lockstat.Read)
        resolve_chain entry ~vpn ~write ~wire first_obj

let no_forced_write _map _entry ~vpn:_ = false
let no_fault_ahead _map _entry ~vpn:_ = ()

let fault map ~vpn ~access ~wire =
  Core.fault map ~vpn ~access ~wire ~forces_write:no_forced_write ~resolve
    ~ahead:no_fault_ahead
