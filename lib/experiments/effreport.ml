(** The comparative efficacy report — the provenance ledger's derived
    analytics (DESIGN.md §10) for UVM and BSD VM over one mixed workload.

    The workload runs on a deliberately small machine (2 MB RAM) so both
    kernels page, and exercises every ledger dimension: madvise-mode
    sweeps over a pre-warmed file (fault-ahead hit rates per advice), a
    strided pass that abandons its premaps (waste), anonymous pressure
    past RAM (pageout clusters, swap-slot reassignment, pageins on the
    return pass), a COW fork, wiring, msync-driven vnode writeback and
    map-entry churn.  The result is the two machines' trace sources;
    [Sim.Trace_export.print_report] / [report_json] render their merged
    ledgers side by side. *)

module Vmtypes = Vmiface.Vmtypes

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let run ~quick () =
    let scale n = if quick then max 1 (n / 4) else n in
    let file_pages = scale 128 in
    let config = Vmiface.Machine.config_mb ~ram_mb:2 ~swap_mb:16 () in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    Vmiface.Machine.set_label mach V.name;
    let vfs = mach.Vmiface.Machine.vfs in
    let vn =
      Vfs.create_file vfs ~name:"/data/corpus" ~size:(file_pages * 4096)
    in
    let vm = V.new_vmspace sys in
    let map_file ?(npages = file_pages) prot share =
      V.mmap sys vm ~npages ~prot ~share (Vmtypes.File (vn, 0))
    in
    (* Warm the file into the page cache so fault-ahead has resident
       neighbours to premap on the measured sweeps. *)
    let warm = map_file Pmap.Prot.read Vmtypes.Shared in
    V.access_range sys vm ~vpn:warm ~npages:file_pages Vmtypes.Read;
    V.munmap sys vm ~vpn:warm ~npages:file_pages;
    (* Sequential sweep under each advice: premaps resolve as used when
       the sweep reaches them, the remainder as wasted at munmap. *)
    List.iter
      (fun advice ->
        let vpn = map_file Pmap.Prot.read Vmtypes.Shared in
        V.madvise sys vm ~vpn ~npages:file_pages advice;
        V.access_range sys vm ~vpn ~npages:file_pages Vmtypes.Read;
        V.munmap sys vm ~vpn ~npages:file_pages)
      [ Vmtypes.Adv_normal; Vmtypes.Adv_sequential; Vmtypes.Adv_random ];
    (* Strided pass: touch every 8th page and abandon the rest, so most
       premapped neighbours die unused. *)
    let vpn = map_file Pmap.Prot.read Vmtypes.Shared in
    let i = ref 0 in
    while !i < file_pages do
      V.touch sys vm ~vpn:(vpn + !i) Vmtypes.Read;
      i := !i + 8
    done;
    V.munmap sys vm ~vpn ~npages:file_pages;
    (* Dirty a shared file window and msync it: vnode pageout, clustered
       under UVM, page-at-a-time under BSD VM. *)
    let wpages = scale 32 in
    let wr = map_file ~npages:wpages Pmap.Prot.rw Vmtypes.Shared in
    V.access_range sys vm ~vpn:wr ~npages:wpages Vmtypes.Write;
    V.msync sys vm ~vpn:wr ~npages:wpages;
    V.munmap sys vm ~vpn:wr ~npages:wpages;
    (* COW fork: the child's writes promote every inherited page. *)
    let cow_pages = scale 32 in
    let cvpn =
      V.mmap sys vm ~npages:cow_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    V.access_range sys vm ~vpn:cvpn ~npages:cow_pages Vmtypes.Write;
    let child = V.fork sys vm in
    V.access_range sys child ~vpn:cvpn ~npages:cow_pages Vmtypes.Write;
    V.destroy_vmspace sys child;
    (* Wire a corner of it (mlock), then release everything. *)
    V.mlock sys vm ~vpn:cvpn ~npages:(min 8 cow_pages);
    V.munlock sys vm ~vpn:cvpn ~npages:(min 8 cow_pages);
    V.munmap sys vm ~vpn:cvpn ~npages:cow_pages;
    (* Anonymous pressure past RAM: the write pass forces pageout, the
       read pass pages everything back in (residency + inter-fault
       samples on both sides of the trip). *)
    let big = config.Vmiface.Machine.ram_pages + scale 512 in
    let avpn =
      V.mmap sys vm ~npages:big ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    V.access_range sys vm ~vpn:avpn ~npages:big Vmtypes.Write;
    V.access_range sys vm ~vpn:avpn ~npages:big Vmtypes.Read;
    (* Dirty everything again: the next pageout re-clusters pages that
       already hold swap slots, so UVM's dynamic reassignment (§6) shows
       up in the distance distribution while BSD VM's fixed slots yield
       no samples. *)
    V.access_range sys vm ~vpn:avpn ~npages:big Vmtypes.Write;
    V.access_range sys vm ~vpn:avpn ~npages:big Vmtypes.Read;
    V.munmap sys vm ~vpn:avpn ~npages:big;
    (* Map-entry churn, with a vslock/vsunlock inside each iteration —
       the wired-buffer case that fragments the BSD map (§3.2) and shows
       up in the live-entry census. *)
    for _ = 1 to scale 64 do
      let v =
        V.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
          Vmtypes.Zero
      in
      V.touch sys vm ~vpn:v Vmtypes.Write;
      let buf = V.vslock sys vm ~vpn:v ~npages:2 in
      V.vsunlock sys vm buf;
      V.munmap sys vm ~vpn:v ~npages:4
    done;
    V.destroy_vmspace sys vm;
    Vfs.vrele vfs vn;
    mach.Vmiface.Machine.trace_source
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = Sim.Trace_export.source list

let run ?(quick = false) () : result = [ U.run ~quick (); B.run ~quick () ]
let print (r : result) = Sim.Trace_export.print_report r
