(** UVM: the paper's virtual memory system, assembled.

    [Uvm.Sys] implements {!Vmiface.Vm_sig.VM_SYS} so the workload and
    experiment layers can run identical code against UVM and the BSD VM
    baseline.  The submodule aliases expose the building blocks for tests
    and for programs that want UVM-only features (loanout, page transfer,
    map-entry passing). *)

module Anon = Uvm_anon
module Amap = Uvm_amap
module Object = Uvm_object
module Vnode_pager = Uvm_vnode
module Aobj = Uvm_aobj
module Map = Uvm_map
module Fault = Uvm_fault
module Pdaemon = Uvm_pdaemon
module Loan = Uvm_loan
module Device = Uvm_device
module Mexp = Uvm_mexp
module Fork = Uvm_fork
module State = Uvm_sys
module Machine = Vmiface.Machine
module Vmtypes = Vmiface.Vmtypes
open Vmtypes

(* Virtual address layout, in pages: a 4 GB address space. *)
let va_lo = 16
let va_hi = 1 lsl 20

module Sys = struct
  let name = "UVM"

  include Vmiface.Frontend.Space

  type vmspace = Uvm_map.t space

  type sys = {
    usys : Uvm_sys.t;
    kernel : vmspace;
    vmspaces : (int, vmspace) Hashtbl.t;  (** live address spaces *)
  }

  include Vmiface.Frontend.Make (struct
    type state = Uvm_sys.t
    type map = Uvm_map.t
    type nonrec sys = sys

    let mach st = st.Uvm_sys.mach
    let fresh_id = Uvm_sys.fresh_id
    let state sys = sys.usys
    let vmspaces sys = sys.vmspaces

    let create_map st ~pmap ~kernel =
      Uvm_map.create st ~pmap ~lo:va_lo ~hi:va_hi ~kernel

    let destroy_map _ = Uvm_map.destroy
    let entry_count = Uvm_map.entry_count
    let fault = Uvm_fault.fault
  end)

  let kernel_vmspace sys = sys.kernel

  (* Every anon and every object reachable from [each_vm]'s maps, each
     visited once, in map order: an entry's amap slots, then its object.
     The order is part of the contract — the tier drain migrates slots in
     it, and that decides which fresh slots they get. *)
  let iter_backing each_vm ~anon ~obj =
    let seen_anon = Hashtbl.create 64 in
    let seen_obj = Hashtbl.create 16 in
    each_vm (fun vm ->
        Uvm_map.iter_entries
          (fun e ->
            (match e.Uvm_map.amap with
            | Some am ->
                for i = 0 to Uvm_map.entry_npages e - 1 do
                  match Uvm_amap.lookup am ~slot:(e.Uvm_map.amapoff + i) with
                  | Some a when not (Hashtbl.mem seen_anon a.Uvm_anon.id) ->
                      Hashtbl.replace seen_anon a.Uvm_anon.id ();
                      anon a
                  | _ -> ()
                done
            | None -> ());
            match e.Uvm_map.obj with
            | Some o when not (Hashtbl.mem seen_obj o.Uvm_object.id) ->
                Hashtbl.replace seen_obj o.Uvm_object.id ();
                obj o
            | _ -> ())
          vm.map)

  let all_vmspaces sys f = Hashtbl.iter (fun _ vm -> f vm) sys.vmspaces

  (* Tier drain: move every swap slot living on an offline device to a
     healthy tier.  Invoked by the pagedaemon through the swap layer's
     drain hook; walks exactly what the swap audit walks, so a passing
     audit after a drain means the device really owns nothing. *)
  let drain_swap sys =
    let swap = Uvm_sys.swapdev sys.usys in
    iter_backing (all_vmspaces sys)
      ~anon:(fun anon ->
        let slot = anon.Uvm_anon.swslot in
        if slot <> 0 && Swap.Swaptier.slot_needs_drain swap ~slot then
          match Swap.Swaptier.migrate_slot swap ~slot with
          | Some fresh ->
              (* set_swslot frees the vacated slot. *)
              Uvm_anon.set_swslot sys.usys anon fresh
          | None -> ())
      ~obj:(fun o ->
        List.iter
          (fun (pgno, slot) ->
            if Swap.Swaptier.slot_needs_drain swap ~slot then
              match Swap.Swaptier.migrate_slot swap ~slot with
              | Some fresh ->
                  Uvm_aobj.rebind_slot o ~pgno ~slot:fresh;
                  Swap.Swaptier.free_slots swap ~slot ~n:1
              | None -> ())
          (Uvm_aobj.swslots o))

  let boot ?config () =
    let mach = Machine.boot ?config () in
    Machine.set_label mach name;
    let usys = Uvm_sys.create mach in
    Uvm_pdaemon.install usys;
    Uvm_vnode.install_recycle_hook usys;
    let kernel = alloc_vmspace usys ~kernel:true in
    let sys = { usys; kernel; vmspaces = Hashtbl.create 32 } in
    register sys kernel;
    Swap.Swaptier.set_drain_hook (Uvm_sys.swapdev usys)
      (Some (fun () -> drain_swap sys));
    sys

  let new_vmspace sys = make_vmspace sys ~kernel:false

  let fork sys parent =
    let usys = sys.usys in
    Uvm_sys.charge usys (Uvm_sys.costs usys).Sim.Cost_model.proc_overhead;
    let pmap = Pmap.create (Uvm_sys.pmap_ctx usys) in
    let map = Uvm_fork.fork_map parent.map ~child_pmap:pmap in
    let vm = { vid = Uvm_sys.fresh_id usys; map; pmap } in
    register sys vm;
    vm

  (* Overload-policy census of one address space: resident and wired
     translation counts straight from the pmap, swap slots by walking the
     two UVM layers this space's entries reach (anons in amaps, then any
     aobj backing).  Shared backing counts toward every sharer — the
     badness score wants "how much does killing this free", and a shared
     page's best estimate is its full footprint. *)
  let vmspace_usage _sys vm =
    let swap = ref 0 in
    iter_backing
      (fun f -> f vm)
      ~anon:(fun anon -> if anon.Uvm_anon.swslot <> 0 then incr swap)
      ~obj:(fun o -> swap := !swap + List.length (Uvm_aobj.swslots o));
    {
      u_resident = resident_pages vm;
      u_swap = !swap;
      u_wired = wired_pages vm;
    }

  let kernel_map_locked sys = Uvm_map.is_locked sys.kernel.map

  let default_inherit = function Private -> Inh_copy | Shared -> Inh_shared

  let mmap sys vm ?fixed_at ~npages ~prot ~share source =
    let usys = sys.usys in
    let spage =
      match fixed_at with
      | Some vpn -> vpn
      | None -> Uvm_map.find_space vm.map ~npages
    in
    let obj, objoff, cow, needs_copy =
      match (source, share) with
      (* Kernel zero-fill mappings are never forked, so needs-copy is
         moot; leaving it clear keeps them mergeable (paper §3.2). *)
      | Zero, Private -> (None, 0, true, not vm.map.Uvm_map.kernel)
      | Zero, Shared -> (Some (Uvm_aobj.create usys), 0, false, false)
      | File (vn, off), Shared -> (Some (Uvm_vnode.attach usys vn), off, false, false)
      | File (vn, off), Private -> (Some (Uvm_vnode.attach usys vn), off, true, true)
    in
    (* The single-step uvm_map: every attribute goes in under one lock. *)
    let _entry =
      Uvm_map.insert vm.map ~spage ~npages ~obj ~objoff ~prot
        ~maxprot:Pmap.Prot.rwx ~inh:(default_inherit share)
        ~advice:Adv_normal ~cow ~needs_copy ~merge:vm.map.Uvm_map.kernel
    in
    spage

  let munmap _sys vm ~vpn ~npages = Uvm_map.unmap vm.map ~spage:vpn ~npages

  let mprotect _sys vm ~vpn ~npages prot =
    Uvm_map.protect vm.map ~spage:vpn ~npages ~prot

  let minherit _sys vm ~vpn ~npages inh =
    Uvm_map.set_inherit vm.map ~spage:vpn ~npages inh

  let madvise _sys vm ~vpn ~npages advice =
    Uvm_map.set_advice vm.map ~spage:vpn ~npages advice

  (* mlock: the one wiring case whose state has no home other than the map
     (paper §3.2), so it clips entries under UVM too.  The faults run
     before the mark so that, while a wire fault is in flight,
     [entry.wired] counts exactly the wirings already carried by mapped
     frames — the set a COW displacement must move to the new frame. *)
  let mlock sys vm ~vpn ~npages =
    wire_pages sys vm ~vpn ~npages;
    Uvm_map.mark_wired vm.map ~spage:vpn ~npages

  let munlock sys vm ~vpn ~npages =
    Uvm_map.mark_unwired vm.map ~spage:vpn ~npages;
    unwire_pages sys vm ~vpn ~npages

  type wired_buffer = { wb_vpn : int; wb_npages : int }

  (* sysctl/physio buffer wiring: the wired state lives in this token (the
     "process kernel stack"), never in the map — no fragmentation. *)
  let vslock sys vm ~vpn ~npages =
    wire_pages sys vm ~vpn ~npages;
    { wb_vpn = vpn; wb_npages = npages }

  let vsunlock sys vm wb =
    unwire_pages sys vm ~vpn:wb.wb_vpn ~npages:wb.wb_npages

  (* ---- IPC data staging (paper §7) ----------------------------------- *)

  type stage =
    | St_loan of Uvm_loan.t
    | St_mexp of { kvpn : int; npages : int }

  let stage_loan _sys vm ~vpn ~npages =
    Some (St_loan (Uvm_loan.to_kernel vm.map ~vpn ~npages))

  (* The extraction raises on unmapped holes; probe first so a bad source
     range declines to the copy path and faults exactly like the
     baseline kernel would.  Shared amaps also decline: the COW snapshot
     marks the source needs-copy, which would detach the sender from an
     amap its sharers expect to keep seeing writes through.  Wired
     translations decline too, the way UVM copies wired entries eagerly
     at fork: a vslock'd frame carries its wiring on the frame alone, so
     a snapshot would let the sender's next write fault displace it and
     strand that wiring on the kernel's copy. *)
  let mexp_range_ok vm ~vpn ~npages =
    let entries = Uvm_map.entries vm.map in
    let covered v =
      (match Pmap.lookup vm.pmap ~vpn:v with
      | Some pte -> not pte.Pmap.wired
      | None -> true)
      && List.exists
           (fun (e : Uvm_map.entry) ->
             e.Uvm_map.spage <= v && v < e.Uvm_map.epage
             && e.Uvm_map.prot.Pmap.Prot.r
             &&
             match e.Uvm_map.amap with
             | Some am -> not am.Uvm_amap.shared
             | None -> true)
           entries
    in
    let ok = ref true in
    for v = vpn to vpn + npages - 1 do
      if not (covered v) then ok := false
    done;
    !ok

  let stage_mexp sys vm ~vpn ~npages =
    if not (mexp_range_ok vm ~vpn ~npages) then None
    else
      let kvpn =
        Uvm_mexp.extract ~src:vm.map ~spage:vpn ~npages ~dst:sys.kernel.map
          Uvm_mexp.Copy
      in
      Some (St_mexp { kvpn; npages })

  let stage_blit sys stage ~off dst dpos len =
    let page_size = Machine.page_size (machine sys) in
    match stage with
    | St_loan loan ->
        (* Loaned frames are wired: copy straight out of them. *)
        let copied = ref 0 in
        while !copied < len do
          let o = off + !copied in
          let po = o mod page_size in
          let n = min (len - !copied) (page_size - po) in
          let page = List.nth (Uvm_loan.pages loan) (o / page_size) in
          Bytes.blit page.Physmem.Page.data po dst (dpos + !copied) n;
          copied := !copied + n
        done
    | St_mexp { kvpn; _ } ->
        (* Through the kernel mapping: pages that were paged out since
           staging fault back in here. *)
        read_into sys sys.kernel ~addr:((kvpn * page_size) + off) dst dpos len

  let stage_map sys dst = function
    | St_loan _ -> None
    | St_mexp { kvpn; npages } ->
        Some
          (Uvm_mexp.extract ~src:sys.kernel.map ~spage:kvpn ~npages
             ~dst:dst.map Uvm_mexp.Donate)

  let stage_free sys = function
    | St_loan loan -> Uvm_loan.finish sys.usys loan
    | St_mexp { kvpn; npages } ->
        Uvm_map.unmap sys.kernel.map ~spage:kvpn ~npages

  let msync _sys vm ~vpn ~npages =
    Uvm_map.iter_obj_ranges vm.map ~spage:vpn ~epage:(vpn + npages)
      (fun obj ~lo ~hi ->
        let dirty =
          List.filter
            (fun (p : Physmem.Page.t) ->
              p.owner_offset >= lo && p.owner_offset < hi)
            (Uvm_object.dirty_pages obj)
        in
        if dirty <> [] then
          (* msync has no error channel here; failed pages stay dirty and
             a later sync or pageout retries them. *)
          match obj.Uvm_object.pgops.Uvm_object.pgo_put dirty with
          | Ok () | Error _ -> ())

  (* Kernel wired allocations (user structures, page tables): UVM allocates
     from the kernel map with entry merging and records the wiring only in
     the page frames — the kernel map stays compact (paper §3.2). *)
  let kernel_alloc_wired sys ~npages =
    let vpn =
      mmap sys sys.kernel ~npages ~prot:Pmap.Prot.rw ~share:Private Zero
    in
    wire_pages sys sys.kernel ~vpn ~npages;
    vpn

  let kernel_free_wired sys ~vpn ~npages =
    unwire_pages sys sys.kernel ~vpn ~npages;
    munmap sys sys.kernel ~vpn ~npages

  (* i386 page-table pages: UVM stores the wired state only inside the
     pmap layer — raw wired frames, no kernel-map entry at all. *)
  type ptp = Physmem.Page.t list

  let pmap_alloc_ptp sys ~npages =
    let physmem = Uvm_sys.physmem sys.usys in
    List.init npages (fun _ ->
        let page =
          Physmem.alloc physmem ~zero:true ~owner:Physmem.Page.No_owner
            ~offset:0 ()
        in
        Physmem.wire physmem page;
        page)

  let pmap_free_ptp sys pages =
    let physmem = Uvm_sys.physmem sys.usys in
    List.iter
      (fun page ->
        Physmem.unwire physmem page;
        Physmem.dequeue physmem page;
        page.Physmem.Page.owner <- Physmem.Page.No_owner;
        Physmem.free_page physmem page)
      pages

  (* Process swapout: the user structure's wired state lives in the proc
     structure, so unwiring it never touches the kernel map (paper §3.2,
     second wiring case). *)
  let swapout_ustruct sys ~vpn ~npages = unwire_pages sys sys.kernel ~vpn ~npages

  let swapin_ustruct sys ~vpn ~npages = wire_pages sys sys.kernel ~vpn ~npages

  (* ---- invariant auditor (DIAGNOSTIC-style, paper §5.3's oracle) ------ *)

  (* Census of the two UVM layers as seen from the maps: for every amap the
     number of referencing entries and how many entries cover each slot;
     for every object the number of referencing entries.  Everything else
     the auditor needs hangs off these. *)
  let audit_census sys =
    let amaps = Hashtbl.create 32 in
    let objs = Hashtbl.create 32 in
    Hashtbl.iter
      (fun _ vm ->
        Uvm_map.audit_structure vm.map ~system:name ~vid:vm.vid;
        Uvm_map.iter_entries
          (fun e ->
            (match e.Uvm_map.amap with
            | Some am ->
                let _, refs, cover =
                  match Hashtbl.find_opt amaps am.Uvm_amap.id with
                  | Some c -> c
                  | None ->
                      let c = (am, ref 0, Array.make am.Uvm_amap.nslots 0) in
                      Hashtbl.replace amaps am.Uvm_amap.id c;
                      c
                in
                incr refs;
                for i = 0 to Uvm_map.entry_npages e - 1 do
                  let s = e.Uvm_map.amapoff + i in
                  if s >= 0 && s < Array.length cover then
                    cover.(s) <- cover.(s) + 1
                done
            | None -> ());
            match e.Uvm_map.obj with
            | Some o ->
                let _, refs =
                  match Hashtbl.find_opt objs o.Uvm_object.id with
                  | Some c -> c
                  | None ->
                      let c = (o, ref 0) in
                      Hashtbl.replace objs o.Uvm_object.id c;
                      c
                in
                incr refs
            | None -> ())
          vm.map)
      sys.vmspaces;
    (amaps, objs)

  let audit_amaps amaps =
    (* anon id -> (anon, number of amap slots holding it) *)
    let anons = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _ ((am : Uvm_amap.t), refs, cover) ->
        let fail invariant detail =
          Check.fail ~system:name ~subsys:Check.Amap ~invariant
            (Printf.sprintf "amap %d: %s" am.Uvm_amap.id detail)
        in
        (match Uvm_amap.check_invariants am with
        | Ok () -> ()
        | Error msg -> fail "amap_structure" msg);
        if am.Uvm_amap.refs <> !refs then
          fail "amap_refs"
            (Printf.sprintf "refcount %d but %d map entries reference it"
               am.Uvm_amap.refs !refs);
        (match am.Uvm_amap.ppref with
        | Some pp ->
            Array.iteri
              (fun i c ->
                if c <> cover.(i) then
                  fail "amap_ppref"
                    (Printf.sprintf
                       "slot %d: per-page refcount %d but %d entries cover it"
                       i c cover.(i)))
              pp
        | None ->
            (* No ppref array means every reference covers every slot. *)
            Array.iteri
              (fun i c ->
                if c <> !refs then
                  fail "amap_coverage"
                    (Printf.sprintf
                       "no ppref yet slot %d covered by %d of %d references" i
                       c !refs))
              cover);
        Array.iter
          (function
            | Some (anon : Uvm_anon.t) ->
                let _, slots =
                  match Hashtbl.find_opt anons anon.Uvm_anon.id with
                  | Some c -> c
                  | None ->
                      let c = (anon, ref 0) in
                      Hashtbl.replace anons anon.Uvm_anon.id c;
                      c
                in
                incr slots
            | None -> ())
          am.Uvm_amap.anons)
      amaps;
    anons

  let audit_anons anons =
    Hashtbl.iter
      (fun _ ((anon : Uvm_anon.t), slots) ->
        let fail invariant detail =
          Check.fail ~system:name ~subsys:Check.Anon ~invariant
            (Printf.sprintf "anon %d: %s" anon.Uvm_anon.id detail)
        in
        if anon.Uvm_anon.refs <> !slots then
          fail "anon_refs"
            (Printf.sprintf "refcount %d but %d amap slots reference it"
               anon.Uvm_anon.refs !slots);
        match anon.Uvm_anon.page with
        | Some p -> (
            if p.Physmem.Page.queue = Physmem.Page.Q_free then
              fail "anon_page_free"
                (Printf.sprintf "page %d is on the free list" p.Physmem.Page.id);
            match p.Physmem.Page.owner with
            | Uvm_anon.Anon_page a when a == anon -> ()
            | _ when p.Physmem.Page.loan_count > 0 ->
                (* A borrowed frame (O->A loanout): owned elsewhere. *)
                ()
            | _ ->
                fail "anon_page_owner"
                  (Printf.sprintf "page %d is not owned by this anon"
                     p.Physmem.Page.id))
        | None ->
            if anon.Uvm_anon.swslot = 0 then
              fail "anon_no_data" "neither resident nor on swap")
      anons

  let audit_objects objs =
    Hashtbl.iter
      (fun _ ((o : Uvm_object.t), refs) ->
        let fail invariant detail =
          Check.fail ~system:name ~subsys:Check.Object ~invariant
            (Printf.sprintf "object %d (%s): %s" o.Uvm_object.id
               o.Uvm_object.pgops.Uvm_object.pgo_name detail)
        in
        if o.Uvm_object.refs <> !refs then
          fail "object_refs"
            (Printf.sprintf "refcount %d but %d map entries reference it"
               o.Uvm_object.refs !refs);
        Check.check_object_pages ~system:name ~fail
          ~owns:(fun p ->
            match p.Physmem.Page.owner with
            | Uvm_object.Uobj_page o' -> o' == o
            | _ -> false)
          ~okey:o.Uvm_object.okey o.Uvm_object.pages)
      objs

  (* Every allocated swap slot must be claimed by exactly one anon or one
     aobj page — an allocated-but-unclaimed slot is the §5.3 swap leak. *)
  let audit_swap sys anons objs =
    let claims = ref [] in
    Hashtbl.iter
      (fun _ ((anon : Uvm_anon.t), _) ->
        if anon.Uvm_anon.swslot <> 0 then
          claims :=
            ( Printf.sprintf "anon#%d" anon.Uvm_anon.id,
              anon.Uvm_anon.swslot )
            :: !claims)
      anons;
    Hashtbl.iter
      (fun _ ((o : Uvm_object.t), _) ->
        List.iter
          (fun (pgno, slot) ->
            claims :=
              (Printf.sprintf "aobj#%d@%d" o.Uvm_object.id pgno, slot)
              :: !claims)
          (Uvm_aobj.swslots o))
      objs;
    Check.check_swap ~system:name (Uvm_sys.swapdev sys.usys) ~claims:!claims

  (* Every live translation must agree with the two-layer lookup the fault
     routine would perform: anon layer first, then the backing object. *)
  let audit_pmap sys =
    Hashtbl.iter
      (fun _ vm ->
        Uvm_map.audit_pmap vm.map ~system:name ~vid:vm.vid
          (fun ~fail e d (pte : Pmap.pte) ->
            let anon =
              match e.Uvm_map.amap with
              | Some am -> Uvm_amap.lookup am ~slot:(e.Uvm_map.amapoff + d)
              | None -> None
            in
            match anon with
            | Some a ->
                if
                  not
                    (match a.Uvm_anon.page with
                    | Some p -> p == pte.Pmap.page
                    | None -> false)
                then
                  fail "pmap_vs_anon"
                    (Printf.sprintf "maps frame %d but anon %d holds %s"
                       pte.Pmap.page.Physmem.Page.id a.Uvm_anon.id
                       (match a.Uvm_anon.page with
                       | Some p -> Printf.sprintf "frame %d" p.id
                       | None -> "no page"))
            | None -> (
                match e.Uvm_map.obj with
                | Some o ->
                    if
                      not
                        (match
                           Uvm_object.find o ~pgno:(e.Uvm_map.objoff + d)
                         with
                        | p -> p == pte.Pmap.page
                        | exception Not_found -> false)
                    then
                      fail "pmap_vs_object"
                        (Printf.sprintf
                           "maps frame %d but object %d offset %d disagrees"
                           pte.Pmap.page.Physmem.Page.id o.Uvm_object.id
                           (e.Uvm_map.objoff + d))
                | None ->
                    fail "pmap_unbacked"
                      "translation for a zero-fill range with no anon")))
      sys.vmspaces

  (* Loan census: every page's loan_count must equal its live borrowed
     references — outstanding kernel loans (mbuf chains, physio) plus
     anons holding a frame they do not own (O->A page transfer). *)
  let audit_loans sys anons =
    let physmem = Uvm_sys.physmem sys.usys in
    let claims = ref (Uvm_sys.kernel_loan_claims sys.usys) in
    Hashtbl.iter
      (fun _ ((anon : Uvm_anon.t), _) ->
        match anon.Uvm_anon.page with
        | Some p -> (
            match p.Physmem.Page.owner with
            | Uvm_anon.Anon_page a when a == anon -> ()
            | _ ->
                claims :=
                  ( Printf.sprintf "anon#%d-borrow" anon.Uvm_anon.id,
                    p.Physmem.Page.id )
                  :: !claims)
        | None -> ())
      anons;
    Check.check_loans ~system:name physmem ~claims:!claims

  let audit sys =
    let physmem = Uvm_sys.physmem sys.usys in
    Check.check_ledger ~system:name physmem;
    Check.check_physmem ~system:name physmem;
    Check.check_smp ~system:name physmem;
    Check.check_pv ~system:name (Uvm_sys.pmap_ctx sys.usys) physmem;
    let amaps, objs = audit_census sys in
    let anons = audit_amaps amaps in
    audit_anons anons;
    audit_loans sys anons;
    audit_objects objs;
    audit_swap sys anons objs;
    audit_pmap sys;
    Check.check_lock_order ~system:name (Uvm_sys.locks sys.usys)

  (* Audit: anonymous pages unreachable from any live address space.  UVM's
     reference counting frees anons eagerly, so this is always 0 — the test
     suite checks the audit agrees. *)
  let leaked_pages sys =
    let reachable = Hashtbl.create 256 in
    iter_backing (all_vmspaces sys)
      ~anon:(fun anon -> Hashtbl.replace reachable anon.Uvm_anon.id ())
      ~obj:ignore;
    let physmem = Uvm_sys.physmem sys.usys in
    let leaked = ref 0 in
    let count (page : Physmem.Page.t) =
      (match page.owner with
      | Uvm_anon.Anon_page anon
        when not (Hashtbl.mem reachable anon.Uvm_anon.id) ->
          incr leaked
      | _ -> ());
      true
    in
    Physmem.walk physmem Physmem.Page.Q_active count;
    Physmem.walk physmem Physmem.Page.Q_inactive count;
    !leaked
end

(* ------------------------------------------------------------------ *)
(* Mapping arbitrary memory objects (device pager, §6).                 *)

(** Map a memory object (e.g. a ROM from {!Device}) into an address
    space; consumes one reference on [obj]. *)
let map_object (_sys : Sys.sys) (vm : Sys.vmspace) ~obj ~npages ~prot
    ~(share : Vmtypes.share) =
  let spage = Uvm_map.find_space vm.Sys.map ~npages in
  let cow = share = Vmtypes.Private in
  ignore
    (Uvm_map.insert vm.Sys.map ~spage ~npages ~obj:(Some obj) ~objoff:0 ~prot
       ~maxprot:Pmap.Prot.rwx
       ~inh:(match share with Vmtypes.Private -> Vmtypes.Inh_copy | Vmtypes.Shared -> Vmtypes.Inh_shared)
       ~advice:Vmtypes.Adv_normal ~cow ~needs_copy:cow ~merge:false);
  spage

(* ------------------------------------------------------------------ *)
(* UVM-only data movement entry points (paper §7), on [Sys]'s types.   *)

(** Loan pages to the kernel (e.g. a zero-copy socket send). *)
let loan_to_kernel (vm : Sys.vmspace) ~vpn ~npages =
  Uvm_loan.to_kernel vm.Sys.map ~vpn ~npages

let loan_finish (sys : Sys.sys) loan = Uvm_loan.finish sys.Sys.usys loan

(** Page transfer: move [npages] pages from [src] into [dst] without
    copying; returns the receiving virtual page. *)
let page_transfer (src : Sys.vmspace) ~vpn ~npages ~(dst : Sys.vmspace)
    ~prot =
  let anons = Uvm_loan.to_anons src.Sys.map ~vpn ~npages in
  Uvm_mexp.import_anons ~dst:dst.Sys.map ~anons ~prot

(** Map-entry passing: share/copy/donate a range of address space. *)
let mexp_extract (src : Sys.vmspace) ~vpn ~npages ~(dst : Sys.vmspace) mode =
  Uvm_mexp.extract ~src:src.Sys.map ~spage:vpn ~npages ~dst:dst.Sys.map mode

(** The copying baseline the paper compares loanout against: a simulated
    copy-based kernel transfer of [npages] pages. *)
let copy_to_kernel (sys : Sys.sys) (vm : Sys.vmspace) ~vpn ~npages =
  let usys = sys.Sys.usys in
  let costs = Uvm_sys.costs usys in
  let physmem = Uvm_sys.physmem usys in
  Uvm_sys.charge usys costs.Sim.Cost_model.syscall_overhead;
  List.init npages (fun i ->
      let vpn = vpn + i in
      Sys.touch sys vm ~vpn Vmiface.Vmtypes.Read;
      match Pmap.lookup vm.Sys.pmap ~vpn with
      | Some pte ->
          let kpage =
            Physmem.alloc physmem ~owner:Physmem.Page.No_owner ~offset:0 ()
          in
          Physmem.copy_data physmem ~src:pte.Pmap.page ~dst:kpage;
          kpage
      | None -> assert false)

let copy_finish (sys : Sys.sys) kpages =
  let physmem = Uvm_sys.physmem sys.Sys.usys in
  List.iter (fun page -> Physmem.free_page physmem page) kpages
