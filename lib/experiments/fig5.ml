(** Figure 5 — anonymous memory allocation time on a 32 MB machine.

    Allocate and touch M megabytes of zero-fill memory.  Once M exceeds
    physical memory the pagedaemon must push dirty anonymous pages to
    swap: UVM reassigns their swap locations into one contiguous run and
    writes multi-page clusters; BSD VM writes one page per I/O operation.
    The paper's plot: both flat and equal until ~28 MB, then BSD's curve
    climbs several times faster (at 50 MB roughly 45 s vs 15-20 s). *)

module Vmtypes = Vmiface.Vmtypes

let sizes_mb = [ 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44; 48 ]

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let time_for mb =
    let config = Vmiface.Machine.config_mb ~ram_mb:32 ~swap_mb:128 () in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let vm = V.new_vmspace sys in
    let npages = mb * 256 (* 4 KB pages per MB *) in
    let clock = mach.Vmiface.Machine.clock in
    let t0 = Sim.Simclock.now clock in
    let vpn =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    V.access_range sys vm ~vpn ~npages Vmtypes.Write;
    Sim.Simclock.now clock -. t0

  let run () = List.map (fun mb -> (mb, time_for mb)) sizes_mb
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = (int * float * float) list

let run () : result =
  List.map2 (fun (n, bsd) (_, uvm) -> (n, bsd, uvm)) (B.run ()) (U.run ())

let print (r : result) =
  Report.title
    "Figure 5: anonymous memory allocation time, 32MB RAM (paper: curves split past RAM size, BSD ~2.5-3x slower at 48MB)";
  Report.row4 "allocation (MB)" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (mb, bsd, uvm) ->
      Report.row4 (string_of_int mb) (Report.seconds bsd) (Report.seconds uvm)
        (Report.ratio bsd uvm))
    r

let json (r : result) = Report.time_rows "mb" r
