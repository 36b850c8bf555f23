(* Page loanout (paper §7): zero-copy lending to the kernel, COW
   preservation, owner-exit survival, and loans of object pages. *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 512; swap_pages = 1024 }
  in
  let sys = S.boot ~config () in
  (sys, S.new_vmspace sys)

let stats sys = (S.machine sys).Vmiface.Machine.stats

let test_loan_shares_frames () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "lend-me");
  let copies0 = (stats sys).Sim.Stats.pages_copied in
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:4 in
  Alcotest.(check int) "no copying" copies0 (stats sys).Sim.Stats.pages_copied;
  let pages = Uvm.Loan.pages loan in
  Alcotest.(check int) "four frames" 4 (List.length pages);
  let first = List.hd pages in
  Alcotest.(check string) "kernel sees user data" "lend-me"
    (Bytes.to_string (Bytes.sub first.Physmem.Page.data 0 7));
  Alcotest.(check bool) "wired for DMA" true (first.Physmem.Page.wire_count > 0);
  Alcotest.(check bool) "loan counted" true (first.Physmem.Page.loan_count > 0);
  Uvm.loan_finish sys loan;
  Alcotest.(check int) "loan ended" 0 first.Physmem.Page.loan_count;
  Alcotest.(check int) "unwired" 0 first.Physmem.Page.wire_count

let test_owner_write_breaks_loan () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "original");
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:1 in
  let kpage = List.hd (Uvm.Loan.pages loan) in
  (* Owner writes while the loan is out: COW must give the owner a fresh
     page, leaving the kernel's view intact. *)
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "CHANGED!");
  Alcotest.(check string) "kernel still sees original" "original"
    (Bytes.to_string (Bytes.sub kpage.Physmem.Page.data 0 8));
  Alcotest.(check string) "owner sees new data" "CHANGED!"
    (Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:8));
  Uvm.loan_finish sys loan

let test_owner_exit_during_loan () =
  let sys, vm = mk () in
  let vpn = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "survive");
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:2 in
  let kpage = List.hd (Uvm.Loan.pages loan) in
  let free0 = Physmem.free_count (Uvm.State.physmem sys.S.usys) in
  S.destroy_vmspace sys vm;
  (* The loaned frames must not be freed while the kernel holds them. *)
  Alcotest.(check string) "data survives owner exit" "survive"
    (Bytes.to_string (Bytes.sub kpage.Physmem.Page.data 0 7));
  Uvm.loan_finish sys loan;
  Alcotest.(check bool) "frames freed after loan ends" true
    (Physmem.free_count (Uvm.State.physmem sys.S.usys) > free0)

let test_loan_object_pages () =
  let sys, vm = mk () in
  let vn =
    Vfs.create_file (S.machine sys).Vmiface.Machine.vfs ~name:"/lo" ~size:8192
  in
  let vpn = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:2 in
  let kpage = List.hd (Uvm.Loan.pages loan) in
  Alcotest.(check char) "file data via loan" (Vfs.file_byte ~name:"/lo" ~off:3)
    (Bytes.get kpage.Physmem.Page.data 3);
  Uvm.loan_finish sys loan

let test_loaned_pages_not_paged_out () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 128; swap_pages = 1024 }
  in
  let sys = S.boot ~config () in
  let vm = S.new_vmspace sys in
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "nailed");
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:1 in
  let kpage = List.hd (Uvm.Loan.pages loan) in
  (* Memory pressure. *)
  let big = S.mmap sys vm ~npages:300 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  for i = 0 to 299 do
    S.write_bytes sys vm ~addr:((big + i) * 4096) (Bytes.of_string "z")
  done;
  Alcotest.(check string) "loaned frame untouched by daemon" "nailed"
    (Bytes.to_string (Bytes.sub kpage.Physmem.Page.data 0 6));
  Uvm.loan_finish sys loan

let test_loan_faults_in_nonresident () =
  let sys, vm = mk () in
  let vn =
    Vfs.create_file (S.machine sys).Vmiface.Machine.vfs ~name:"/nr" ~size:16384
  in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  (* No touch first: the loan path must fault the pages in itself. *)
  let loan = Uvm.loan_to_kernel vm ~vpn ~npages:4 in
  Alcotest.(check int) "all four loaned" 4 (List.length (Uvm.Loan.pages loan));
  Uvm.loan_finish sys loan

(* Two processes share an anon amap and both mlock its page; one of them
   loans the page out and writes it.  The loan break moves only the
   writer's wiring to the fresh copy: the other sharer's wired
   translation stays on the loaned frame, so its munlock and the loan's
   end each find their own wiring there. *)
let test_shared_amap_loan_break_keeps_sharer_wiring () =
  let sys, a = mk () in
  let vpn = S.mmap sys a ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys a ~addr:(vpn * 4096) (Bytes.of_string "shared");
  S.minherit sys a ~vpn ~npages:1 Vt.Inh_shared;
  let b = S.fork sys a in
  S.mlock sys a ~vpn ~npages:1;
  S.mlock sys b ~vpn ~npages:1;
  let loan = Uvm.loan_to_kernel a ~vpn ~npages:1 in
  let kpage = List.hd (Uvm.Loan.pages loan) in
  S.write_bytes sys a ~addr:(vpn * 4096) (Bytes.of_string "broken");
  Alcotest.(check int) "sharer's wiring and the loan's stay" 2
    kpage.Physmem.Page.wire_count;
  S.munlock sys b ~vpn ~npages:1;
  Uvm.loan_finish sys loan;
  S.munlock sys a ~vpn ~npages:1;
  S.audit sys

let () =
  Alcotest.run "loan"
    [
      ( "kernel loans",
        [
          Alcotest.test_case "shares frames" `Quick test_loan_shares_frames;
          Alcotest.test_case "COW preserved" `Quick test_owner_write_breaks_loan;
          Alcotest.test_case "owner exit" `Quick test_owner_exit_during_loan;
          Alcotest.test_case "object pages" `Quick test_loan_object_pages;
          Alcotest.test_case "not paged out" `Quick test_loaned_pages_not_paged_out;
          Alcotest.test_case "faults in" `Quick test_loan_faults_in_nonresident;
          Alcotest.test_case "shared-amap loan break keeps sharer wiring"
            `Quick test_shared_amap_loan_break_keeps_sharer_wiring;
        ] );
    ]
