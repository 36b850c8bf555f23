(** Figure 6 — fork-and-wait overhead vs. amount of anonymous memory.

    The parent allocates and touches M megabytes of anonymous memory, then
    repeatedly forks a child and waits for it.  In the upper pair of
    curves the child writes to its memory once (one copy-on-write fault)
    before exiting; in the lower pair it exits immediately.  The cost
    grows linearly with M — write-protecting the parent's resident pages
    and tearing down the child's address space are per-page — and BSD VM's
    line is steeper than UVM's at every size (paper: up to ~5000 µs at
    15 MB). *)

module Vmtypes = Vmiface.Vmtypes

let sizes_mb = [ 0; 1; 2; 4; 6; 8; 10; 12; 15 ]
let iterations = 20

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let time_for ~touch mb =
    let config = Vmiface.Machine.config_mb ~ram_mb:64 () in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let vm = V.new_vmspace sys in
    let npages = max 1 (mb * 256) in
    let vpn =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    (* Parent data is resident and dirty, as in the paper's benchmark. *)
    if mb > 0 then V.access_range sys vm ~vpn ~npages Vmtypes.Write;
    let cycle () =
      let child = V.fork sys vm in
      if touch then V.touch sys child ~vpn Vmtypes.Write;
      V.destroy_vmspace sys child
    in
    cycle () (* warm-up *);
    let clock = mach.Vmiface.Machine.clock in
    let t0 = Sim.Simclock.now clock in
    for _ = 1 to iterations do
      cycle ()
    done;
    (Sim.Simclock.now clock -. t0) /. float_of_int iterations

  let run ~touch = List.map (fun mb -> (mb, time_for ~touch mb)) sizes_mb
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = {
  touched : (int * float * float) list;  (** MB, BSD µs, UVM µs *)
  untouched : (int * float * float) list;
}

let run () : result =
  let zip b u = List.map2 (fun (n, x) (_, y) -> (n, x, y)) b u in
  {
    touched = zip (B.run ~touch:true) (U.run ~touch:true);
    untouched = zip (B.run ~touch:false) (U.run ~touch:false);
  }

let print (r : result) =
  Report.title
    "Figure 6: fork+wait time vs anonymous memory (paper: linear, BSD above UVM, ~2000-5000us at 15MB)";
  print_endline "child writes once before exiting:";
  Report.row4 "anon memory (MB)" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (mb, bsd, uvm) ->
      Report.row4 (string_of_int mb) (Report.micros bsd) (Report.micros uvm)
        (Report.ratio bsd uvm))
    r.touched;
  print_endline "child exits immediately:";
  Report.row4 "anon memory (MB)" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (mb, bsd, uvm) ->
      Report.row4 (string_of_int mb) (Report.micros bsd) (Report.micros uvm)
        (Report.ratio bsd uvm))
    r.untouched

let json (r : result) =
  Sim.Json.Object
    [
      ("touched", Report.time_rows "mb" r.touched);
      ("untouched", Report.time_rows "mb" r.untouched);
    ]
