(** Figure 2 — BSD VM object cache effect on file access.

    An Apache-like server memory-maps each of N 64 KB files and reads
    every byte, over and over.  Under BSD VM the object cache holds at
    most one hundred unreferenced objects: past 100 files, every pass
    throws away file data that is still resident and re-reads it from
    disk, even though memory is plentiful.  UVM has no second cache — the
    data persists exactly as long as the vnode does — so its pass time
    stays flat across the whole range (paper's log-scale plot jumps from
    ~0.03 s to seconds at the 100-file cliff). *)

module Vmtypes = Vmiface.Vmtypes

let file_pages = 16 (* 64 KB files *)
let counts = [ 25; 50; 75; 100; 125; 150; 200; 300; 400; 500 ]

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let pass sys vm nfiles =
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    for i = 0 to nfiles - 1 do
      let vn = Vfs.lookup vfs ~name:(Printf.sprintf "/www/doc-%03d" i) in
      let vpn =
        V.mmap sys vm ~npages:file_pages ~prot:Pmap.Prot.read
          ~share:Vmtypes.Shared
          (Vmtypes.File (vn, 0))
      in
      V.access_range sys vm ~vpn ~npages:file_pages Vmtypes.Read;
      V.munmap sys vm ~vpn ~npages:file_pages;
      Vfs.vrele vfs vn
    done

  let time_for nfiles =
    (* 64 MB of RAM: memory is plentiful; the effect is purely the cache. *)
    let config = Vmiface.Machine.config_mb ~ram_mb:64 () in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let vfs = mach.Vmiface.Machine.vfs in
    for i = 0 to nfiles - 1 do
      let vn =
        Vfs.create_file vfs
          ~name:(Printf.sprintf "/www/doc-%03d" i)
          ~size:(file_pages * 4096)
      in
      Vfs.vrele vfs vn
    done;
    let vm = V.new_vmspace sys in
    (* Warm pass to populate caches, then the measured steady-state pass. *)
    pass sys vm nfiles;
    let clock = mach.Vmiface.Machine.clock in
    let t0 = Sim.Simclock.now clock in
    pass sys vm nfiles;
    Sim.Simclock.now clock -. t0

  let run () = List.map (fun n -> (n, time_for n)) counts
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = (int * float * float) list

let run () : result =
  List.map2
    (fun (n, bsd) (_, uvm) -> (n, bsd, uvm))
    (B.run ()) (U.run ())

let print (r : result) =
  Report.title
    "Figure 2: time to mmap+read N 64KB files (paper: BSD jumps ~100x past 100 files; UVM flat)";
  Report.row4 "# of 64KB files" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (n, bsd, uvm) ->
      Report.row4 (string_of_int n) (Report.seconds bsd) (Report.seconds uvm)
        (Report.ratio bsd uvm))
    r

let json (r : result) = Report.time_rows "files" r
