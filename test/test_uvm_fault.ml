(* The UVM fault routine: zero-fill, object-backed, COW, needs-copy,
   fault-ahead, errors, wiring. *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 512; swap_pages = 1024 }
  in
  let sys = S.boot ~config () in
  (sys, S.new_vmspace sys)

let stats sys = (S.machine sys).Vmiface.Machine.stats
let vfs sys = (S.machine sys).Vmiface.Machine.vfs

let test_zero_fill_write () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "hello");
  let b = S.read_bytes sys vm ~addr:(vpn * 4096) ~len:5 in
  Alcotest.(check bytes) "written data" (Bytes.of_string "hello") b;
  let z = S.read_bytes sys vm ~addr:((vpn * 4096) + 5) ~len:5 in
  Alcotest.(check bytes) "rest zero" (Bytes.make 5 '\000') z

let test_zero_fill_read_then_write () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.touch sys vm ~vpn Vt.Read;
  let f1 = (stats sys).Sim.Stats.faults in
  (* Fresh zero anon has refs=1: the read fault maps it writable, so the
     subsequent write takes no second fault. *)
  S.touch sys vm ~vpn Vt.Write;
  Alcotest.(check int) "no second fault" f1 (stats sys).Sim.Stats.faults

let test_file_shared_read () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/sf" ~size:16384 in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let b = S.read_bytes sys vm ~addr:((vpn * 4096) + 7) ~len:4 in
  let want = Bytes.init 4 (fun i -> Vfs.file_byte ~name:"/sf" ~off:(7 + i)) in
  Alcotest.(check bytes) "file contents" want b

let test_file_shared_write_reaches_file () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/sw" ~size:8192 in
  let vpn = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "SHARED");
  S.msync sys vm ~vpn ~npages:2;
  Alcotest.(check string) "flushed to file" "SHARED"
    (Vfs.read_file (vfs sys) vn ~off:0 ~len:6)

let test_file_private_write_isolated () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/pw" ~size:8192 in
  let vpn = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
  let orig = (Vfs.read_file (vfs sys) vn ~off:0 ~len:1).[0] in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "PRIV");
  S.msync sys vm ~vpn ~npages:2;
  Alcotest.(check char) "file untouched" orig
    (Vfs.read_file (vfs sys) vn ~off:0 ~len:1).[0];
  Alcotest.(check int) "promoted via one copy" 1 (stats sys).Sim.Stats.cow_copies;
  (* A second process mapping the file sees the original data. *)
  let vm2 = S.new_vmspace sys in
  let vpn2 = S.mmap sys vm2 ~npages:2 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  Alcotest.(check char) "other mapping original" orig
    (Bytes.get (S.read_bytes sys vm2 ~addr:(vpn2 * 4096) ~len:1) 0)

let test_no_entry_segv () =
  let sys, vm = mk () in
  (try
     S.touch sys vm ~vpn:999 Vt.Read;
     Alcotest.fail "expected Segv"
   with Vt.Segv { error = Vt.No_entry; _ } -> ());
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Private Vt.Zero in
  try
    S.touch sys vm ~vpn Vt.Write;
    Alcotest.fail "expected prot Segv"
  with Vt.Segv { error = Vt.Prot_denied; _ } -> ()

let test_fault_ahead_maps_residents () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/fa" ~size:(32 * 4096) in
  let vpn = S.mmap sys vm ~npages:32 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  (* Make all pages resident in another vmspace first. *)
  let warm = S.new_vmspace sys in
  let wvpn = S.mmap sys warm ~npages:32 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.access_range sys warm ~vpn:wvpn ~npages:32 Vt.Read;
  let f0 = (stats sys).Sim.Stats.faults in
  let fa0 = (stats sys).Sim.Stats.fault_ahead_mapped in
  S.touch sys vm ~vpn:(vpn + 10) Vt.Read;
  Alcotest.(check int) "one fault" (f0 + 1) (stats sys).Sim.Stats.faults;
  (* Default window: 3 behind + 4 ahead, all resident. *)
  Alcotest.(check int) "seven neighbours mapped" (fa0 + 7)
    (stats sys).Sim.Stats.fault_ahead_mapped;
  (* Accessing a neighbour takes no fault now. *)
  S.touch sys vm ~vpn:(vpn + 11) Vt.Read;
  S.touch sys vm ~vpn:(vpn + 8) Vt.Read;
  Alcotest.(check int) "neighbours pre-mapped" (f0 + 1) (stats sys).Sim.Stats.faults

let test_madvise_random_disables_fault_ahead () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/rand" ~size:(16 * 4096) in
  let vpn = S.mmap sys vm ~npages:16 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let warm = S.new_vmspace sys in
  let wvpn = S.mmap sys warm ~npages:16 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.access_range sys warm ~vpn:wvpn ~npages:16 Vt.Read;
  S.madvise sys vm ~vpn ~npages:16 Vt.Adv_random;
  let fa0 = (stats sys).Sim.Stats.fault_ahead_mapped in
  S.touch sys vm ~vpn:(vpn + 5) Vt.Read;
  Alcotest.(check int) "no fault-ahead under Adv_random" fa0
    (stats sys).Sim.Stats.fault_ahead_mapped

let test_fault_ahead_never_io () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/cold" ~size:(64 * 4096) in
  let vpn = S.mmap sys vm ~npages:64 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let ops0 = (stats sys).Sim.Stats.disk_read_ops in
  S.touch sys vm ~vpn Vt.Read;
  (* One clustered read for the miss; fault-ahead must not add I/O. *)
  Alcotest.(check int) "single read op" (ops0 + 1) (stats sys).Sim.Stats.disk_read_ops

let test_cluster_read () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/clust" ~size:(16 * 4096) in
  let vpn = S.mmap sys vm ~npages:16 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let pr0 = (stats sys).Sim.Stats.disk_pages_read in
  S.touch sys vm ~vpn Vt.Read;
  (* io_cluster (default 4) pages come in on one op. *)
  Alcotest.(check int) "cluster of 4" (pr0 + 4) (stats sys).Sim.Stats.disk_pages_read

let test_vslock_no_fragmentation () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:8 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  let entries0 = S.map_entry_count vm in
  let wb = S.vslock sys vm ~vpn:(vpn + 3) ~npages:2 in
  Alcotest.(check int) "no entries added by vslock" entries0 (S.map_entry_count vm);
  S.vsunlock sys vm wb;
  Alcotest.(check int) "still intact" entries0 (S.map_entry_count vm);
  (* mlock, by contrast, must fragment (the one case with no other home). *)
  S.mlock sys vm ~vpn:(vpn + 3) ~npages:2;
  Alcotest.(check int) "mlock fragments" (entries0 + 2) (S.map_entry_count vm)

let () =
  Alcotest.run "uvm_fault"
    [
      ( "zero-fill",
        [
          Alcotest.test_case "write" `Quick test_zero_fill_write;
          Alcotest.test_case "read then write" `Quick test_zero_fill_read_then_write;
        ] );
      ( "file",
        [
          Alcotest.test_case "shared read" `Quick test_file_shared_read;
          Alcotest.test_case "shared write" `Quick test_file_shared_write_reaches_file;
          Alcotest.test_case "private write isolated" `Quick test_file_private_write_isolated;
          Alcotest.test_case "cluster read" `Quick test_cluster_read;
        ] );
      ( "errors",
        [ Alcotest.test_case "segv" `Quick test_no_entry_segv ] );
      ( "fault-ahead",
        [
          Alcotest.test_case "maps residents" `Quick test_fault_ahead_maps_residents;
          Alcotest.test_case "madvise random" `Quick test_madvise_random_disables_fault_ahead;
          Alcotest.test_case "never does io" `Quick test_fault_ahead_never_io;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "vslock no fragmentation" `Quick test_vslock_no_fragmentation;
        ] );
    ]
