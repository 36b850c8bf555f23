(** The BSD VM baseline, assembled.

    [Bsdvm.Sys] implements {!Vmiface.Vm_sig.VM_SYS} with the 4.4BSD
    behaviours the paper measures against: two-step mapping with its
    security window, single-phase unmap, shadow-object chains with
    collapse, the hundred-object cache, per-page I/O, map-fragmenting
    wiring, and no fault-ahead. *)

module Object = Vm_object
module Objcache = Vm_objcache
module Map = Vm_map
module Fault = Vm_fault
module Pageout = Vm_pageout
module State = Bsd_sys
module Machine = Vmiface.Machine
module Vmtypes = Vmiface.Vmtypes
open Vmtypes

let va_lo = 16
let va_hi = 1 lsl 20

module Sys = struct
  let name = "BSD VM"

  include Vmiface.Frontend.Space

  type vmspace = Vm_map.t space

  type sys = {
    bsys : Bsd_sys.t;
    cache : Vm_objcache.t;
    kernel : vmspace;
    vmspaces : (int, vmspace) Hashtbl.t;
  }

  include Vmiface.Frontend.Make (struct
    type state = Bsd_sys.t
    type map = Vm_map.t
    type nonrec sys = sys

    let mach st = st.Bsd_sys.mach
    let fresh_id = Bsd_sys.fresh_id
    let state sys = sys.bsys
    let vmspaces sys = sys.vmspaces

    let create_map st ~pmap ~kernel =
      Vm_map.create st ~pmap ~lo:va_lo ~hi:va_hi ~kernel

    let destroy_map sys = Vm_map.destroy sys.cache
    let entry_count = Vm_map.entry_count
    let fault = Vm_fault.fault
  end)

  let kernel_vmspace sys = sys.kernel

  (* Tier drain: move every swap slot living on an offline device to a
     healthy tier.  Only anonymous objects hold swap slots in BSD VM, and
     all of them — shadows included — are in the anon registry. *)
  let drain_swap bsys =
    let swap = Bsd_sys.swapdev bsys in
    List.iter
      (fun (obj : Vm_object.t) ->
        let moves =
          Hashtbl.fold
            (fun pgno slot acc ->
              if Swap.Swaptier.slot_needs_drain swap ~slot then
                (pgno, slot) :: acc
              else acc)
            obj.Vm_object.swslots []
        in
        List.iter
          (fun (pgno, slot) ->
            match Swap.Swaptier.migrate_slot swap ~slot with
            | Some fresh ->
                Hashtbl.replace obj.Vm_object.swslots pgno fresh;
                Swap.Swaptier.free_slots swap ~slot ~n:1
            | None -> ())
          moves)
      (Vm_object.live_anon_objects bsys)

  let boot ?config () =
    let mach = Machine.boot ?config () in
    Machine.set_label mach name;
    let bsys = Bsd_sys.create mach in
    Swap.Swaptier.set_drain_hook (Bsd_sys.swapdev bsys)
      (Some (fun () -> drain_swap bsys));
    Vm_pageout.install bsys;
    let cache = Vm_objcache.create () in
    let kernel = alloc_vmspace bsys ~kernel:true in
    let sys = { bsys; cache; kernel; vmspaces = Hashtbl.create 32 } in
    register sys kernel;
    sys

  let new_vmspace sys = make_vmspace sys ~kernel:false

  let fork sys parent =
    let bsys = sys.bsys in
    Bsd_sys.charge bsys (Bsd_sys.costs bsys).Sim.Cost_model.proc_overhead;
    let child = alloc_vmspace bsys ~kernel:false in
    Vm_map.lock parent.map;
    Vm_map.iter_entries
      (fun e ->
        match e.Vm_map.inh with
        | Inh_none -> ()
        | Inh_shared ->
            (match e.Vm_map.obj with
            | Some o -> Vm_object.reference o
            | None -> ());
            Vm_map.insert_entry_raw child.map (Vm_map.copy_entry child.map e)
        | Inh_copy when e.Vm_map.wired > 0 ->
            (* A wired entry's copy may never be deferred: write-protecting
               the parent would make its next write COW the wired frame into
               a shadow object and remap the parent, stranding the wire
               count on the original page until teardown frees a still-wired
               frame.  Copy the range into a private object for the child
               now — wiring faulted every page in and keeps it off the
               paging queues, so each translation is present and resident —
               and leave the parent untouched. *)
            let physmem = Bsd_sys.physmem bsys in
            let obj = Vm_object.alloc_anon_object bsys in
            let npages = e.Vm_map.epage - e.Vm_map.spage in
            for i = 0 to npages - 1 do
              match Pmap.lookup parent.pmap ~vpn:(e.Vm_map.spage + i) with
              | None -> invalid_arg "vm_fork: wired page not mapped"
              | Some pte ->
                  let fresh_page =
                    Physmem.alloc physmem
                      ~owner:(Vm_object.Obj_page obj) ~offset:i ()
                  in
                  Physmem.copy_data physmem ~src:pte.Pmap.page ~dst:fresh_page;
                  (Bsd_sys.stats bsys).Sim.Stats.cow_copies <-
                    (Bsd_sys.stats bsys).Sim.Stats.cow_copies + 1;
                  Vm_object.insert_page obj ~pgno:i fresh_page;
                  fresh_page.Physmem.Page.dirty <- true;
                  Physmem.activate physmem fresh_page
            done;
            let fresh = Vm_map.copy_entry child.map e in
            fresh.Vm_map.obj <- Some obj;
            fresh.Vm_map.objoff <- 0;
            fresh.Vm_map.cow <- false;
            fresh.Vm_map.needs_copy <- false;
            Vm_map.insert_entry_raw child.map fresh
        | Inh_copy ->
            (* Figure 3 upper row: share the object, set needs-copy on both
               sides, write-protect the parent's view. *)
            (match e.Vm_map.obj with
            | Some o -> Vm_object.reference o
            | None -> ());
            let fresh = Vm_map.copy_entry child.map e in
            fresh.Vm_map.cow <- true;
            fresh.Vm_map.needs_copy <- true;
            e.Vm_map.cow <- true;
            e.Vm_map.needs_copy <- true;
            Pmap.restrict_range parent.pmap ~lo:e.Vm_map.spage
              ~hi:e.Vm_map.epage
              ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
            Vm_map.insert_entry_raw child.map fresh)
      parent.map;
    Vm_map.unlock parent.map;
    register sys child;
    child

  (* Overload-policy census of one address space: resident/wired counts
     from the pmap; swap slots by walking every shadow chain this space's
     entries reach (all anonymous swap lives in object swslots tables).
     Shared chains count toward every sharer — the badness score wants
     the footprint a kill could free, and shared backing's best estimate
     is its full size. *)
  let vmspace_usage _sys vm =
    let swap = ref 0 in
    let seen = Hashtbl.create 16 in
    let rec chain (obj : Vm_object.t) =
      if not (Hashtbl.mem seen obj.Vm_object.id) then begin
        Hashtbl.replace seen obj.Vm_object.id ();
        swap := !swap + Hashtbl.length obj.Vm_object.swslots;
        match obj.Vm_object.shadow with
        | Some backing -> chain backing
        | None -> ()
      end
    in
    Vm_map.iter_entries
      (fun e -> match e.Vm_map.obj with Some o -> chain o | None -> ())
      vm.map;
    {
      u_resident = resident_pages vm;
      u_swap = !swap;
      u_wired = wired_pages vm;
    }

  let kernel_map_locked sys = Vm_map.is_locked sys.kernel.map

  (* The historical two-step mapping: establish with default attributes
     (read-write!), then relock and adjust each non-default attribute.
     Between the steps a read-only mapping is briefly writable — the
     security window of paper §3.1, observable via the probe. *)
  let mmap sys vm ?fixed_at ~npages ~prot ~share source =
    let bsys = sys.bsys in
    let spage =
      match fixed_at with
      | Some vpn -> vpn
      | None -> Vm_map.find_space vm.map ~npages
    in
    let obj, objoff, cow, needs_copy =
      match (source, share) with
      | Zero, Private -> (Vm_object.alloc_anon_object bsys, 0, false, false)
      | Zero, Shared -> (Vm_object.alloc_anon_object bsys, 0, false, false)
      | File (vn, off), Shared ->
          (Vm_objcache.vnode_object bsys sys.cache vn, off, false, false)
      | File (vn, off), Private ->
          (Vm_objcache.vnode_object bsys sys.cache vn, off, true, true)
    in
    let _e =
      Vm_map.insert_default vm.map ~spage ~npages ~obj:(Some obj) ~objoff ~cow
        ~needs_copy
    in
    (match bsys.Bsd_sys.two_step_probe with
    | Some probe -> probe spage
    | None -> ());
    if not (Pmap.Prot.equal prot Pmap.Prot.rw) then
      Vm_map.protect vm.map ~spage ~npages ~prot;
    (match share with
    | Shared -> Vm_map.set_inherit vm.map ~spage ~npages Inh_shared
    | Private -> ());
    spage

  let munmap sys vm ~vpn ~npages =
    Vm_map.unmap sys.cache vm.map ~spage:vpn ~npages

  let mprotect _sys vm ~vpn ~npages prot =
    Vm_map.protect vm.map ~spage:vpn ~npages ~prot

  let minherit _sys vm ~vpn ~npages inh =
    Vm_map.set_inherit vm.map ~spage:vpn ~npages inh

  let madvise _sys vm ~vpn ~npages advice =
    Vm_map.set_advice vm.map ~spage:vpn ~npages advice

  (* BSD records a wiring in the map before its wire faults run.  When
     one fails (a hole raises [Segv]), [wire_pages] has unwired the pages
     before it, and the range is unmarked again before the error
     propagates. *)
  let mark_and_wire sys vm ~vpn ~npages =
    Vm_map.mark_wired vm.map ~spage:vpn ~npages;
    match wire_pages sys vm ~vpn ~npages with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Vm_map.mark_unwired vm.map ~spage:vpn ~npages;
        Printexc.raise_with_backtrace e bt

  let mlock sys vm ~vpn ~npages = mark_and_wire sys vm ~vpn ~npages

  let munlock sys vm ~vpn ~npages =
    Vm_map.mark_unwired vm.map ~spage:vpn ~npages;
    unwire_pages sys vm ~vpn ~npages

  type wired_buffer = { wb_vpn : int; wb_npages : int }

  (* BSD records sysctl/physio buffer wiring in the process map: the range
     is clipped out of its entry, and the fragmentation persists after
     unwiring (paper §3.2 — the map-entry demand Table 1 measures). *)
  let vslock sys vm ~vpn ~npages =
    mark_and_wire sys vm ~vpn ~npages;
    { wb_vpn = vpn; wb_npages = npages }

  let vsunlock sys vm wb =
    Vm_map.mark_unwired vm.map ~spage:wb.wb_vpn ~npages:wb.wb_npages;
    unwire_pages sys vm ~vpn:wb.wb_vpn ~npages:wb.wb_npages

  (* BSD VM has neither page loanout nor map-entry passing: IPC staging
     always declines and the IPC layer copies (the paper's baseline). *)
  type stage = unit

  let stage_loan _sys _vm ~vpn:_ ~npages:_ = None
  let stage_mexp _sys _vm ~vpn:_ ~npages:_ = None
  let stage_blit _sys () ~off:_ _ _ _ = assert false
  let stage_map _sys _vm () = None
  let stage_free _sys () = ()

  let msync sys vm ~vpn ~npages =
    let bsys = sys.bsys in
    Vm_map.iter_obj_ranges vm.map ~spage:vpn ~epage:(vpn + npages)
      (fun obj ~lo ~hi ->
        match obj.Vm_object.kind with
        | Vm_object.Vnode vn ->
            List.iter
              (fun (p : Physmem.Page.t) ->
                if p.owner_offset >= lo && p.owner_offset < hi then
                  (* One write per page, as ever.  A failed page stays
                     dirty for a later sync or pageout to retry. *)
                  match
                    Bsd_sys.write_file bsys vn ~start_page:p.owner_offset
                      ~srcs:[ p ]
                  with
                  | Ok () | Error _ -> ())
              (Vm_object.dirty_pages obj)
        | Vm_object.Anon -> ())

  (* Kernel wired allocations: BSD creates a map entry per allocation and
     records the wiring in the kernel map — two kernel entries per process
     (user structure + page tables), paper §3.2. *)
  let kernel_alloc_wired sys ~npages =
    let vpn =
      mmap sys sys.kernel ~npages ~prot:Pmap.Prot.rw ~share:Private Zero
    in
    Vm_map.mark_wired sys.kernel.map ~spage:vpn ~npages;
    wire_pages sys sys.kernel ~vpn ~npages;
    vpn

  let kernel_free_wired sys ~vpn ~npages =
    Vm_map.mark_unwired sys.kernel.map ~spage:vpn ~npages;
    unwire_pages sys sys.kernel ~vpn ~npages;
    munmap sys sys.kernel ~vpn ~npages

  (* BSD records the user structure's wiring in the kernel map too, so a
     process swapout/swapin pays map lock/lookup/clip traffic that UVM
     avoids. *)
  let swapout_ustruct sys ~vpn ~npages =
    Vm_map.mark_unwired sys.kernel.map ~spage:vpn ~npages;
    unwire_pages sys sys.kernel ~vpn ~npages

  let swapin_ustruct sys ~vpn ~npages =
    Vm_map.mark_wired sys.kernel.map ~spage:vpn ~npages;
    wire_pages sys sys.kernel ~vpn ~npages

  (* i386 page-table pages: BSD allocates them from the kernel map and
     records the wiring there too — one more kernel entry per process. *)
  type ptp = { ptp_vpn : int; ptp_npages : int }

  let pmap_alloc_ptp sys ~npages =
    { ptp_vpn = kernel_alloc_wired sys ~npages; ptp_npages = npages }

  let pmap_free_ptp sys ptp =
    kernel_free_wired sys ~vpn:ptp.ptp_vpn ~npages:ptp.ptp_npages

  (* ---- invariant auditor ---------------------------------------------- *)

  (* Gather every object the system can still reach — through map entries,
     down shadow chains, the live-anon registry, and the vnode cache — with
     the number of map entries directly referencing each. *)
  let audit_census sys =
    let objs = Hashtbl.create 64 in
    let rec note (o : Vm_object.t) =
      match Hashtbl.find_opt objs o.Vm_object.id with
      | Some c -> c
      | None ->
          let c = (o, ref 0) in
          Hashtbl.replace objs o.Vm_object.id c;
          (match o.Vm_object.shadow with
          | Some b -> ignore (note b)
          | None -> ());
          c
    in
    Hashtbl.iter
      (fun _ vm ->
        Vm_map.audit_structure vm.map ~system:name ~vid:vm.vid;
        Vm_map.iter_entries
          (fun e ->
            match e.Vm_map.obj with
            | Some o ->
                let _, refs = note o in
                incr refs
            | None ->
                Check.fail ~system:name ~subsys:Check.Map
                  ~invariant:"entry_unbacked"
                  (Printf.sprintf "vmspace %d: entry at %d has no object"
                     vm.vid e.Vm_map.spage))
          vm.map)
      sys.vmspaces;
    List.iter
      (fun o -> ignore (note o))
      (Vm_object.live_anon_objects sys.bsys);
    Hashtbl.iter
      (fun _ o -> ignore (note o))
      sys.cache.Vm_objcache.by_vnode;
    objs

  let audit_objects objs =
    (* How many live objects actually shadow each object, to check the
       cached [shadow_count] and the reference counts against. *)
    let shadowers = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _ ((o : Vm_object.t), _) ->
        match o.Vm_object.shadow with
        | Some b ->
            Hashtbl.replace shadowers b.Vm_object.id
              (1
              + Option.value ~default:0
                  (Hashtbl.find_opt shadowers b.Vm_object.id))
        | None -> ())
      objs;
    Hashtbl.iter
      (fun _ ((o : Vm_object.t), entry_refs) ->
        let fail invariant detail =
          Check.fail ~system:name ~subsys:Check.Object ~invariant
            (Printf.sprintf "object %d: %s" o.Vm_object.id detail)
        in
        if o.Vm_object.dead then fail "object_dead" "reachable but dead";
        let nshadowers =
          Option.value ~default:0 (Hashtbl.find_opt shadowers o.Vm_object.id)
        in
        if o.Vm_object.shadow_count <> nshadowers then
          fail "shadow_count"
            (Printf.sprintf "shadow_count=%d but %d live objects shadow it"
               o.Vm_object.shadow_count nshadowers);
        (* Each direct map reference and each shadowing object holds one
           reference; nothing else may. *)
        if o.Vm_object.refs <> !entry_refs + nshadowers then
          fail "object_refs"
            (Printf.sprintf
               "refcount %d but %d map entries + %d shadowers reference it"
               o.Vm_object.refs !entry_refs nshadowers);
        if o.Vm_object.cached then begin
          if o.Vm_object.refs <> 0 then
            fail "cached_referenced"
              (Printf.sprintf "in the object cache with %d references"
                 o.Vm_object.refs);
          match o.Vm_object.kind with
          | Vm_object.Anon -> fail "cached_anon" "anonymous object in the cache"
          | Vm_object.Vnode _ -> ()
        end
        else if o.Vm_object.refs = 0 then
          fail "object_unreferenced" "alive with no references, not cached";
        Check.check_object_pages ~system:name ~fail
          ~owns:(fun p ->
            match p.Physmem.Page.owner with
            | Vm_object.Obj_page o' -> o' == o
            | _ -> false)
          ~okey:o.Vm_object.okey o.Vm_object.pages)
      objs

  let audit_swap sys objs =
    let claims = ref [] in
    Hashtbl.iter
      (fun _ ((o : Vm_object.t), _) ->
        Hashtbl.iter
          (fun pgno slot ->
            claims :=
              (Printf.sprintf "obj#%d@%d" o.Vm_object.id pgno, slot) :: !claims)
          o.Vm_object.swslots)
      objs;
    Check.check_swap ~system:name (Bsd_sys.swapdev sys.bsys) ~claims:!claims

  (* A translation must map exactly the frame the fault routine would find:
     the first resident page down the shadow chain, provided no shallower
     copy sits on swap (pageout removes the translations of what it
     evicts). *)
  let audit_pmap sys =
    let rec first_resident (o : Vm_object.t) off =
      match Vm_object.find_page o ~pgno:off with
      | Some p -> Some p
      | None ->
          if Hashtbl.mem o.Vm_object.swslots off then None
          else (
            match o.Vm_object.shadow with
            | Some b -> first_resident b (off + o.Vm_object.shadow_offset)
            | None -> None)
    in
    Hashtbl.iter
      (fun _ vm ->
        Vm_map.audit_pmap vm.map ~system:name ~vid:vm.vid
          (fun ~fail e d (pte : Pmap.pte) ->
            match e.Vm_map.obj with
            | None -> fail "pmap_unbacked" "translation without an object"
            | Some o -> (
                match first_resident o (e.Vm_map.objoff + d) with
                | Some p when p == pte.Pmap.page -> ()
                | Some p ->
                    fail "pmap_vs_object"
                      (Printf.sprintf
                         "maps frame %d but the chain resolves frame %d"
                         pte.Pmap.page.Physmem.Page.id p.Physmem.Page.id)
                | None ->
                    fail "pmap_stale"
                      (Printf.sprintf
                         "maps frame %d but the chain holds no resident page"
                         pte.Pmap.page.Physmem.Page.id))))
      sys.vmspaces

  let audit sys =
    let physmem = Bsd_sys.physmem sys.bsys in
    Check.check_ledger ~system:name physmem;
    Check.check_physmem ~system:name physmem;
    Check.check_smp ~system:name physmem;
    (* No loanout on BSD VM: every frame's loan_count must be zero. *)
    Check.check_loans ~system:name physmem ~claims:[];
    Check.check_pv ~system:name (Bsd_sys.pmap_ctx sys.bsys) physmem;
    let objs = audit_census sys in
    audit_objects objs;
    audit_swap sys objs;
    audit_pmap sys;
    Check.check_lock_order ~system:name (Bsd_sys.locks sys.bsys)

  (* Audit anonymous pages that no lookup path can reach any more — the
     swap-leak pathology of paper §5.3.  For every mapped offset we walk
     the chain exactly as the fault routine would; the first hit is
     reachable, deeper copies of the same offset are not. *)
  let leaked_pages sys =
    let reachable : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
    let rec walk obj off =
      if Hashtbl.mem obj.Vm_object.pages off then
        Hashtbl.replace reachable (obj.Vm_object.id, off) ()
      else
        match obj.Vm_object.shadow with
        | Some backing -> walk backing (off + obj.Vm_object.shadow_offset)
        | None -> ()
    in
    Hashtbl.iter
      (fun _ vm ->
        Vm_map.iter_entries
          (fun e ->
            match e.Vm_map.obj with
            | Some obj ->
                for i = 0 to Vm_map.entry_npages e - 1 do
                  walk obj (e.Vm_map.objoff + i)
                done
            | None -> ())
          vm.map)
      sys.vmspaces;
    let leaked = ref 0 in
    List.iter
      (fun (obj : Vm_object.t) ->
        if not obj.Vm_object.dead then
          Hashtbl.iter
            (fun off (_ : Physmem.Page.t) ->
              if not (Hashtbl.mem reachable (obj.Vm_object.id, off)) then
                incr leaked)
            obj.Vm_object.pages)
      (Vm_object.live_anon_objects sys.bsys);
    !leaked
end
