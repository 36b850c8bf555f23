(* Page transfer and map-entry passing (paper §7). *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk () =
  let sys = S.boot () in
  (sys, S.new_vmspace sys, S.new_vmspace sys)

let write sys vm ~vpn s = S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string s)
let read sys vm ~vpn n = Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:n)
let stats sys = (S.machine sys).Vmiface.Machine.stats

let test_page_transfer () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:3 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn "page-zero";
  write sys src ~vpn:(vpn + 2) "page-two!";
  let copies0 = (stats sys).Sim.Stats.pages_copied in
  let dvpn = Uvm.page_transfer src ~vpn ~npages:3 ~dst ~prot:Pmap.Prot.rw in
  Alcotest.(check int) "zero copies" copies0 (stats sys).Sim.Stats.pages_copied;
  Alcotest.(check string) "receiver sees data" "page-zero" (read sys dst ~vpn:dvpn 9);
  Alcotest.(check string) "third page too" "page-two!" (read sys dst ~vpn:(dvpn + 2) 9);
  (* Transferred memory is ordinary anonymous memory: receiver writes COW
     away from the source. *)
  write sys dst ~vpn:dvpn "MINE!!!!!";
  Alcotest.(check string) "source isolated" "page-zero" (read sys src ~vpn 9);
  S.destroy_vmspace sys src;
  Alcotest.(check string) "receiver survives source exit" "MINE!!!!!"
    (read sys dst ~vpn:dvpn 9)

let test_mexp_share () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn "alpha";
  let dvpn = Uvm.mexp_extract src ~vpn ~npages:4 ~dst Uvm.Mexp.Share in
  Alcotest.(check string) "receiver reads" "alpha" (read sys dst ~vpn:dvpn 5);
  write sys dst ~vpn:dvpn "bravo";
  Alcotest.(check string) "writes visible to source" "bravo" (read sys src ~vpn 5);
  write sys src ~vpn:(vpn + 1) "gamma";
  Alcotest.(check string) "and back" "gamma" (read sys dst ~vpn:(dvpn + 1) 5)

let test_mexp_copy () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn "before";
  let dvpn = Uvm.mexp_extract src ~vpn ~npages:2 ~dst Uvm.Mexp.Copy in
  write sys src ~vpn "after!";
  Alcotest.(check string) "receiver keeps snapshot" "before" (read sys dst ~vpn:dvpn 6);
  write sys dst ~vpn:dvpn "theirs";
  Alcotest.(check string) "source keeps its own" "after!" (read sys src ~vpn 6)

let test_mexp_donate () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn "moving";
  let entries0 = S.map_entry_count src in
  let dvpn = Uvm.mexp_extract src ~vpn ~npages:2 ~dst Uvm.Mexp.Donate in
  Alcotest.(check string) "receiver has it" "moving" (read sys dst ~vpn:dvpn 6);
  Alcotest.(check int) "source entry gone" (entries0 - 1) (S.map_entry_count src);
  try
    S.touch sys src ~vpn Vt.Read;
    Alcotest.fail "source should have lost the range"
  with Vt.Segv { error = Vt.No_entry; _ } -> ()

let test_mexp_partial_range_fragments () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:10 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn:(vpn + 4) "middle";
  let entries0 = S.map_entry_count src in
  let dvpn = Uvm.mexp_extract src ~vpn:(vpn + 3) ~npages:3 ~dst Uvm.Mexp.Share in
  (* Sharing the middle of an entry clips it — the paper's caveat about
     map fragmentation from entry passing on small ranges. *)
  Alcotest.(check int) "source fragmented" (entries0 + 2) (S.map_entry_count src);
  Alcotest.(check string) "shared window" "middle" (read sys dst ~vpn:(dvpn + 1) 6)

let test_mexp_hole_rejected () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  Alcotest.check_raises "holes rejected"
    (Invalid_argument "Uvm_mexp.extract: source range has unmapped holes")
    (fun () -> ignore (Uvm.mexp_extract src ~vpn ~npages:10 ~dst Uvm.Mexp.Share))

let test_transfer_from_file_mapping () =
  let sys, src, dst = mk () in
  let vn =
    Vfs.create_file (S.machine sys).Vmiface.Machine.vfs ~name:"/tf" ~size:8192
  in
  let vpn = S.mmap sys src ~npages:2 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let dvpn = Uvm.page_transfer src ~vpn ~npages:2 ~dst ~prot:Pmap.Prot.rw in
  Alcotest.(check char) "file page transferred" (Vfs.file_byte ~name:"/tf" ~off:9)
    (Bytes.get (S.read_bytes sys dst ~addr:((dvpn * 4096) + 9) ~len:1) 0);
  (* Receiver writes: becomes private anonymous memory; file unchanged. *)
  write sys dst ~vpn:dvpn "own";
  Alcotest.(check char) "file intact" (Vfs.file_byte ~name:"/tf" ~off:0)
    (Vfs.read_file (S.machine sys).Vmiface.Machine.vfs vn ~off:0 ~len:1).[0]


(* Regression: a COW replace inside a shared amap (possible when a page
   transfer made the anon multi-referenced) must not leave other sharers
   reading the displaced page. *)
let test_share_after_transfer_stays_coherent () =
  let sys, src, dst = mk () in
  let vpn = S.mmap sys src ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  write sys src ~vpn "original";
  (* Transfer bumps the anon's refcount. *)
  let consumer2 = S.new_vmspace sys in
  let tvpn = Uvm.page_transfer src ~vpn ~npages:1 ~dst:consumer2 ~prot:Pmap.Prot.rw in
  (* Now share the range; the sharer's write COWs (refs > 1) and replaces
     the anon in the shared amap. *)
  let dvpn = Uvm.mexp_extract src ~vpn ~npages:1 ~dst Uvm.Mexp.Share in
  write sys dst ~vpn:dvpn "mutually";
  Alcotest.(check string) "source sees the sharer's write" "mutually"
    (read sys src ~vpn 8);
  write sys src ~vpn "two-way!";
  Alcotest.(check string) "and back" "two-way!" (read sys dst ~vpn:dvpn 8);
  Alcotest.(check string) "transferred copy kept its snapshot" "original"
    (read sys consumer2 ~vpn:tvpn 8)

let () =
  Alcotest.run "mexp"
    [
      ( "page transfer",
        [
          Alcotest.test_case "anon transfer" `Quick test_page_transfer;
          Alcotest.test_case "from file mapping" `Quick test_transfer_from_file_mapping;
        ] );
      ( "map-entry passing",
        [
          Alcotest.test_case "share" `Quick test_mexp_share;
          Alcotest.test_case "copy" `Quick test_mexp_copy;
          Alcotest.test_case "donate" `Quick test_mexp_donate;
          Alcotest.test_case "fragmentation" `Quick test_mexp_partial_range_fragments;
          Alcotest.test_case "holes rejected" `Quick test_mexp_hole_rejected;
          Alcotest.test_case "share after transfer coherent" `Quick
            test_share_after_transfer_stays_coherent;
        ] );
    ]

