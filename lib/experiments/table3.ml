(** Table 3 — single-page map / fault / unmap time (µs, paper):

    {v
    fault/mapping        BSD VM   UVM
    read/shared file         24    21
    read/private file        48    22
    write/shared file       113   100
    write/private file       80    67
    read/zero fill           60    49
    write/zero fill          60    48
    v}

    Warm micro-benchmark: map one page, touch it, unmap; averaged over
    many iterations with the file data already resident.  The BSD numbers
    carry the two-step mapping, the pager-structure/hash work and — for
    private read faults — the needless shadow-object allocation the paper
    calls out. *)

module Vmtypes = Vmiface.Vmtypes

type case = {
  case_name : string;
  share : Vmtypes.share;
  source_file : bool;
  access : Vmtypes.access;
}

let cases =
  [
    { case_name = "read/shared file"; share = Shared; source_file = true; access = Read };
    { case_name = "read/private file"; share = Private; source_file = true; access = Read };
    { case_name = "write/shared file"; share = Shared; source_file = true; access = Write };
    { case_name = "write/private file"; share = Private; source_file = true; access = Write };
    { case_name = "read/zero fill"; share = Private; source_file = false; access = Read };
    { case_name = "write/zero fill"; share = Private; source_file = false; access = Write };
  ]

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let iterations = 200

  let measure_case case =
    let sys = V.boot () in
    let mach = V.machine sys in
    let vfs = mach.Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/tmp/bench-file" ~size:8192 in
    let vm = V.new_vmspace sys in
    (* Warm the file pages into memory so the loop measures VM work, not
       disk I/O (the paper's numbers are warm too: 1M cycles averaged). *)
    let warm =
      V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    V.touch sys vm ~vpn:warm Vmtypes.Read;
    V.munmap sys vm ~vpn:warm ~npages:1;
    let prot =
      match case.access with
      | Vmtypes.Read -> Pmap.Prot.read
      | Vmtypes.Write -> Pmap.Prot.rw
    in
    let source =
      if case.source_file then Vmtypes.File (vn, 0) else Vmtypes.Zero
    in
    let one () =
      let vpn =
        V.mmap sys vm ~npages:1 ~prot ~share:case.share source
      in
      V.touch sys vm ~vpn case.access;
      V.munmap sys vm ~vpn ~npages:1
    in
    (* A few warm-up rounds, then the measured ones. *)
    for _ = 1 to 10 do
      one ()
    done;
    let clock = mach.Vmiface.Machine.clock in
    let t0 = Sim.Simclock.now clock in
    for _ = 1 to iterations do
      one ()
    done;
    (Sim.Simclock.now clock -. t0) /. float_of_int iterations

  let run () = List.map (fun c -> (c.case_name, measure_case c)) cases
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = (string * float * float) list

let run () : result =
  List.map2
    (fun (label, bsd) (_, uvm) -> (label, bsd, uvm))
    (B.run ()) (U.run ())

let paper =
  [ (24., 21.); (48., 22.); (113., 100.); (80., 67.); (60., 49.); (60., 48.) ]

let print (r : result) =
  Report.title "Table 3: single-page map-fault-unmap time (paper: see doc comment)";
  Report.row4 "Fault/mapping" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (label, bsd, uvm) ->
      Report.row4 label (Report.micros bsd) (Report.micros uvm)
        (Report.ratio bsd uvm))
    r

let json (r : result) =
  Sim.Json.list
    (fun (label, bsd, uvm) ->
      Sim.Json.Object
        [ ("label", String label); ("bsd_us", Sim.Json.float bsd);
          ("uvm_us", Sim.Json.float uvm) ])
    r
