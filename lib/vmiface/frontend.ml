(** The address-space half of {!Vm_sig.VM_SYS} that both kernels share:
    the vmspace record and registry, and the user access paths (touch,
    byte copies, wiring) that resolve misses through the kernel's fault
    routine.  A kernel's [Sys] includes {!Space} for the record, defines
    its booted-kernel type, then includes {!Make} with its fault function
    and map operations. *)

open Vmtypes

module Space = struct
  type 'map space = { vid : int; map : 'map; pmap : Pmap.t }
end

open Space

module type KERNEL = sig
  type state
  (** The kernel's global state ([Uvm_sys.t], [Bsd_sys.t]). *)

  type map

  type sys
  (** A booted kernel: its state, kernel vmspace and vmspace registry. *)

  val mach : state -> Machine.t
  val fresh_id : state -> int
  val state : sys -> state
  val vmspaces : sys -> (int, map space) Hashtbl.t
  val create_map : state -> pmap:Pmap.t -> kernel:bool -> map
  val destroy_map : sys -> map -> unit
  val entry_count : map -> int

  val fault :
    map -> vpn:int -> access:access -> wire:bool -> (unit, fault_error) result
end

module Make (K : KERNEL) = struct
  let machine sys = K.mach (K.state sys)

  (* A fresh address space, not yet registered (the kernel's own is built
     before the registry exists). *)
  let alloc_vmspace st ~kernel =
    let pmap = Pmap.create (K.mach st).Machine.pmap_ctx in
    { vid = K.fresh_id st; map = K.create_map st ~pmap ~kernel; pmap }

  let register sys vm = Hashtbl.replace (K.vmspaces sys) vm.vid vm

  let make_vmspace sys ~kernel =
    let vm = alloc_vmspace (K.state sys) ~kernel in
    register sys vm;
    vm

  let destroy_vmspace sys vm =
    K.destroy_map sys vm.map;
    Pmap.destroy vm.pmap;
    Hashtbl.remove (K.vmspaces sys) vm.vid

  let map_entry_count vm = K.entry_count vm.map
  let resident_pages vm = Pmap.resident_count vm.pmap

  let wired_pages vm =
    List.fold_left
      (fun acc (_, pte) -> if pte.Pmap.wired then acc + 1 else acc)
      0
      (Pmap.translations vm.pmap)

  let swap_slots_in_use sys =
    Swap.Swaptier.slots_in_use (machine sys).Machine.swap

  (* Whole-process swapout, eviction half: push every reclaimable resident
     page onto the inactive queue with its translations gone, so the next
     pageout pass swaps the dirty ones out and frees the rest. *)
  let deactivate_resident sys vm =
    let m = machine sys in
    let count = ref 0 in
    List.iter
      (fun (_, (pte : Pmap.pte)) ->
        let page = pte.Pmap.page in
        if (not pte.Pmap.wired) && Pdaemon_core.pageable page then begin
          Pmap.page_remove_all m.Machine.pmap_ctx page;
          Physmem.deactivate m.Machine.physmem page;
          incr count
        end)
      (Pmap.translations vm.pmap);
    !count

  let fault_or_segv vm ~vpn ~access ~wire =
    match K.fault vm.map ~vpn ~access ~wire with
    | Ok () -> ()
    | Error error -> raise (Segv { vpn; error })

  (* The translation stops counting as wired when its frame's last
     wiring goes: [u_wired] falls and whole-process swapout may evict
     the page again. *)
  let unwire_pages sys vm ~vpn ~npages =
    let physmem = (machine sys).Machine.physmem in
    for v = vpn to vpn + npages - 1 do
      match Pmap.lookup vm.pmap ~vpn:v with
      | Some pte ->
          let page = pte.Pmap.page in
          Physmem.unwire physmem page;
          if page.Physmem.Page.wire_count = 0 then pte.Pmap.wired <- false
      | None -> ()
    done

  (* A wire fault per page.  When one fails (a hole raises [Segv]), the
     pages already wired are unwired before the error propagates, as
     uvm_vslock unwinds: a failed wiring leaves no frame wired. *)
  let wire_pages sys vm ~vpn ~npages =
    for v = vpn to vpn + npages - 1 do
      match fault_or_segv vm ~vpn:v ~access:Read ~wire:true with
      | () -> ()
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          unwire_pages sys vm ~vpn ~npages:(v - vpn);
          Printexc.raise_with_backtrace e bt
    done

  let touch sys vm ~vpn access =
    let m = machine sys in
    Machine.charge m m.Machine.access_cost;
    let write = access = Write in
    if not (Pmap.permits vm.pmap ~vpn ~write) then
      fault_or_segv vm ~vpn ~access ~wire:false;
    Pmap.mark_access vm.pmap ~vpn ~write

  let access_range sys vm ~vpn ~npages access =
    for v = vpn to vpn + npages - 1 do
      touch sys vm ~vpn:v access
    done

  let page_of sys vm ~vpn access =
    touch sys vm ~vpn access;
    (Pmap.find vm.pmap ~vpn).Pmap.page

  (* Read [len] bytes from [addr] into [dst] at [dpos], page by page,
     faulting each page in for read. *)
  let read_into sys vm ~addr dst dpos len =
    let page_size = Machine.page_size (machine sys) in
    let copied = ref 0 in
    while !copied < len do
      let a = addr + !copied in
      let vpn = a / page_size and off = a mod page_size in
      let n = min (len - !copied) (page_size - off) in
      let page = page_of sys vm ~vpn Read in
      Bytes.blit page.Physmem.Page.data off dst (dpos + !copied) n;
      copied := !copied + n
    done

  let read_bytes sys vm ~addr ~len =
    let out = Bytes.create len in
    read_into sys vm ~addr out 0 len;
    out

  (* Walk [len] bytes from [addr] page by page in address order, faulting
     each page in for write and marking it dirty, and let [fill src data
     off pos n] put bytes [pos, pos + n) of the caller's source into the
     frame's [data] at [off].  [fill] and [src] come apart so that a
     caller with a static [fill] builds no closure. *)
  let copyout sys vm ~addr ~len fill src =
    let page_size = Machine.page_size (machine sys) in
    let copied = ref 0 in
    while !copied < len do
      let a = addr + !copied in
      let vpn = a / page_size and off = a mod page_size in
      let n = min (len - !copied) (page_size - off) in
      let page = page_of sys vm ~vpn Write in
      fill src page.Physmem.Page.data off !copied n;
      page.Physmem.Page.dirty <- true;
      copied := !copied + n
    done

  let blit_from data dst off pos n = Bytes.blit data pos dst off n

  let write_bytes sys vm ~addr data =
    copyout sys vm ~addr ~len:(Bytes.length data) blit_from data
end
