(* The pagedaemon: reclamation, aggressive clustering, data fidelity
   under paging pressure, wired/loaned page protection. *)

module Vt = Vmiface.Vmtypes

let small_config =
  { Vmiface.Machine.default_config with ram_pages = 128; swap_pages = 2048 }

(* The cases that hold for any pagedaemon, run on both kernels.  [pmap]
   reads a vmspace's pmap through the shared {!Vmiface.Frontend.Space}
   record. *)
module Cases (S : sig
  include Vmiface.Vm_sig.VM_SYS

  val pmap : vmspace -> Pmap.t
end) =
struct
  let stats sys = (S.machine sys).Vmiface.Machine.stats

  (* One pass of the kernel's pagedaemon. *)
  let pagedaemon sys =
    Physmem.run_pagedaemon (S.machine sys).Vmiface.Machine.physmem

  let fill sys vm ~vpn ~npages =
    for i = 0 to npages - 1 do
      S.write_bytes sys vm
        ~addr:((vpn + i) * 4096)
        (Bytes.of_string (Printf.sprintf "#%04d#" i))
    done

  let verify sys vm ~vpn ~npages =
    for i = 0 to npages - 1 do
      let got = S.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:6 in
      Alcotest.(check bytes)
        (Printf.sprintf "page %d content" i)
        (Bytes.of_string (Printf.sprintf "#%04d#" i))
        got
    done

  let test_pressure_roundtrip () =
    let sys = S.boot ~config:small_config () in
    let vm = S.new_vmspace sys in
    let n = 300 in
    let vpn = S.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    Alcotest.(check bool) "paging happened" true ((stats sys).Sim.Stats.pageouts > 0);
    verify sys vm ~vpn ~npages:n;
    Alcotest.(check bool) "pageins happened" true ((stats sys).Sim.Stats.pageins > 0);
    S.destroy_vmspace sys vm;
    Alcotest.(check int) "swap released at exit" 0 (S.swap_slots_in_use sys)

  let test_wired_pages_never_paged () =
    let sys = S.boot ~config:small_config () in
    let vm = S.new_vmspace sys in
    let pinned = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    S.write_bytes sys vm ~addr:(pinned * 4096) (Bytes.of_string "pinned");
    S.mlock sys vm ~vpn:pinned ~npages:4;
    let frame id = (Option.get (Pmap.lookup (S.pmap vm) ~vpn:id)).Pmap.page.Physmem.Page.id in
    let f0 = frame pinned in
    (* Crush memory. *)
    let big = S.mmap sys vm ~npages:200 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn:big ~npages:200;
    Alcotest.(check int) "wired frame still mapped" f0 (frame pinned);
    Alcotest.(check string) "wired data intact" "pinned"
      (Bytes.to_string (S.read_bytes sys vm ~addr:(pinned * 4096) ~len:6))

  let test_clean_page_with_swap_copy_reclaimed_without_io () =
    let sys = S.boot ~config:small_config () in
    let vm = S.new_vmspace sys in
    let n = 200 in
    let vpn = S.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    (* Read everything back (pages in, now clean with swap copies). *)
    verify sys vm ~vpn ~npages:n;
    let outs = (stats sys).Sim.Stats.pageouts in
    (* More pressure: clean pages with swap copies must be reclaimed without
       fresh pageouts dominating (some re-dirtying is fine). *)
    let extra = S.mmap sys vm ~npages:60 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    for i = 0 to 59 do
      S.touch sys vm ~vpn:(extra + i) Vt.Read
    done;
    let new_outs = (stats sys).Sim.Stats.pageouts - outs in
    Alcotest.(check bool) "mostly free reclaims" true (new_outs < 60)

  let test_aobj_shared_paging () =
    let sys = S.boot ~config:small_config () in
    let vm = S.new_vmspace sys in
    let shm = S.mmap sys vm ~npages:50 ~prot:Pmap.Prot.rw ~share:Vt.Shared Vt.Zero in
    fill sys vm ~vpn:shm ~npages:50;
    (* Shared anon memory must also survive pressure. *)
    let big = S.mmap sys vm ~npages:200 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn:big ~npages:200;
    verify sys vm ~vpn:shm ~npages:50;
    S.destroy_vmspace sys vm;
    Alcotest.(check int) "aobj swap freed" 0 (S.swap_slots_in_use sys)

  let test_swap_exhaustion_raises () =
    let config =
      { Vmiface.Machine.default_config with ram_pages = 64; swap_pages = 32 }
    in
    let sys = S.boot ~config () in
    let vm = S.new_vmspace sys in
    let vpn = S.mmap sys vm ~npages:200 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    (try
       for i = 0 to 199 do
         S.write_bytes sys vm ~addr:((vpn + i) * 4096) (Bytes.of_string "y")
       done;
       Alcotest.fail "expected Segv Out_of_memory (swap deadlock)"
     with Vt.Segv { error = Vt.Out_of_memory; _ } -> ());
    Alcotest.(check bool) "swap nearly full" true (S.swap_slots_in_use sys > 0)

  (* vsunlock drops each frame's last wiring, so the translations stop
     counting as wired and whole-process swapout evicts the pages. *)
  let test_vsunlock_unwires () =
    let sys = S.boot ~config:small_config () in
    let vm = S.new_vmspace sys in
    let n = 4 in
    let vpn = S.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    let wb = S.vslock sys vm ~vpn ~npages:n in
    Alcotest.(check int) "wired while locked" n (S.vmspace_usage sys vm).Vt.u_wired;
    S.vsunlock sys vm wb;
    Alcotest.(check int) "nothing wired after vsunlock" 0
      (S.vmspace_usage sys vm).Vt.u_wired;
    Alcotest.(check int) "swapout deactivates every page" n
      (S.deactivate_resident sys vm);
    (* A second process's pressure pages the inactive pages out. *)
    let hog = S.new_vmspace sys in
    let big =
      S.mmap sys hog ~npages:200 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    S.access_range sys hog ~vpn:big ~npages:200 Vt.Write;
    S.destroy_vmspace sys hog;
    Alcotest.(check int) "every page evicted to swap" n
      (S.vmspace_usage sys vm).Vt.u_swap;
    verify sys vm ~vpn ~npages:n;
    S.destroy_vmspace sys vm;
    S.audit sys

  (* A pass that finds the free target already met stops at once: it
     must not copy either queue, however deep they are. *)
  let test_pass_at_target_allocates_little () =
    let config =
      { Vmiface.Machine.default_config with ram_pages = 4096; swap_pages = 4096 }
    in
    let sys = S.boot ~config () in
    let physmem = (S.machine sys).Vmiface.Machine.physmem in
    let populate () =
      let vm = S.new_vmspace sys in
      let vpn =
        S.mmap sys vm ~npages:1500 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
      in
      S.access_range sys vm ~vpn ~npages:1500 Vt.Write;
      vm
    in
    ignore (S.deactivate_resident sys (populate ()) : int);
    ignore (populate () : S.vmspace);
    Alcotest.(check bool) "deep active queue" true (Physmem.active_count physmem >= 1000);
    Alcotest.(check bool) "deep inactive queue" true
      (Physmem.inactive_count physmem >= 1000);
    Alcotest.(check bool) "free target met" true
      (Physmem.free_count physmem >= Physmem.freetarg physmem);
    let before = Gc.minor_words () in
    pagedaemon sys;
    let words = Gc.minor_words () -. before in
    if words >= 1000. then
      Alcotest.failf "daemon pass at the free target allocated %.0f words" words

  (* On a tiered boot, a clean file page the daemon reclaims is spilled
     to the fast tier.  Its refault is a swapcache hit: the file's bytes
     come back without a vnode read. *)
  let test_swapcache_refault () =
    let config =
      Vmiface.Machine.tiered ~fast_pages:512 ~slow_pages:2048 small_config
    in
    let sys = S.boot ~config () in
    let vfs = (S.machine sys).Vmiface.Machine.vfs in
    let n = 16 in
    let vn = Vfs.create_file vfs ~name:"/cached" ~size:(n * 4096) in
    let vm = S.new_vmspace sys in
    let vpn =
      S.mmap sys vm ~npages:n ~prot:Pmap.Prot.read ~share:Vt.Shared
        (Vt.File (vn, 0))
    in
    S.access_range sys vm ~vpn ~npages:n Vt.Read;
    ignore (S.deactivate_resident sys vm : int);
    (* Pressure from a second process reclaims the inactive file pages
       first; its exit leaves memory free for the refaults. *)
    let hog = S.new_vmspace sys in
    let big =
      S.mmap sys hog ~npages:200 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    S.access_range sys hog ~vpn:big ~npages:200 Vt.Write;
    S.destroy_vmspace sys hog;
    let hits = (stats sys).Sim.Stats.swap_cache_hits in
    let vnode_reads = Sim.Disk.read_ops (Vfs.disk vfs) in
    let got = S.read_bytes sys vm ~addr:(vpn * 4096) ~len:(n * 4096) in
    Alcotest.(check int) "every refault is a swapcache hit" n
      ((stats sys).Sim.Stats.swap_cache_hits - hits);
    Alcotest.(check int) "no vnode read" vnode_reads
      (Sim.Disk.read_ops (Vfs.disk vfs));
    Bytes.iteri
      (fun off c ->
        if c <> Vfs.file_byte ~name:"/cached" ~off then
          Alcotest.failf "byte %d: got %C, file has %C" off c
            (Vfs.file_byte ~name:"/cached" ~off))
      got;
    S.destroy_vmspace sys vm;
    S.audit sys

  let paging =
    [
      ("pressure roundtrip", test_pressure_roundtrip);
      ("aobj shared paging", test_aobj_shared_paging);
      ("swap exhaustion", test_swap_exhaustion_raises);
      ("swapcache refault", test_swapcache_refault);
    ]

  let policy =
    [
      ("wired never paged", test_wired_pages_never_paged);
      ("clean reclaim", test_clean_page_with_swap_copy_reclaimed_without_io);
      ("pass at target allocates little", test_pass_at_target_allocates_little);
      ("vsunlock unwires", test_vsunlock_unwires);
    ]
end

module U = Cases (struct
  include Uvm.Sys

  let pmap (vm : vmspace) = vm.pmap
end)

module B = Cases (struct
  include Bsdvm.Sys

  let pmap (vm : vmspace) = vm.pmap
end)

let test_clustering_reduces_ops () =
  (* Compare UVM default (clustered) against the BSD baseline on the same
     workload: write ops must be far fewer under UVM. *)
  let count (module V : Vmiface.Vm_sig.VM_SYS) =
    let sys = V.boot ~config:small_config () in
    let vm = V.new_vmspace sys in
    let vpn = V.mmap sys vm ~npages:300 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    V.access_range sys vm ~vpn ~npages:300 Vt.Write;
    let st = (V.machine sys).Vmiface.Machine.stats in
    (st.Sim.Stats.disk_write_ops, st.Sim.Stats.pageouts)
  in
  let uvm_ops, uvm_pages = count (module Uvm.Sys) in
  let bsd_ops, bsd_pages = count (module Bsdvm.Sys) in
  Alcotest.(check bool) "similar page counts" true
    (abs (uvm_pages - bsd_pages) < uvm_pages);
  Alcotest.(check bool) "uvm clusters writes" true (uvm_ops * 2 < bsd_ops);
  Alcotest.(check bool) "bsd one op per page" true (bsd_ops >= bsd_pages)

module S = Uvm.Sys

let test_second_chance_keeps_hot_pages () =
  let sys = S.boot ~config:small_config () in
  let vm = S.new_vmspace sys in
  let hot = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  S.write_bytes sys vm ~addr:(hot * 4096) (Bytes.of_string "hot");
  let big = S.mmap sys vm ~npages:400 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
  (* Keep touching the hot page while pressure builds. *)
  for i = 0 to 399 do
    S.write_bytes sys vm ~addr:((big + i) * 4096) (Bytes.of_string "x");
    if i mod 10 = 0 then S.touch sys vm ~vpn:hot Vt.Read
  done;
  (* The hot page is likely still resident (second chance); correctness
     either way, but its data must survive. *)
  Alcotest.(check string) "hot data" "hot"
    (Bytes.to_string (S.read_bytes sys vm ~addr:(hot * 4096) ~len:3))

(* UVM's cases keep their plain names; BSD VM's carry the kernel's. *)
let cases ~suffix =
  List.map (fun (name, f) -> Alcotest.test_case (name ^ suffix) `Quick f)

let () =
  Alcotest.run "pdaemon"
    [
      ( "paging",
        cases ~suffix:"" U.paging
        @ [ Alcotest.test_case "clustering reduces ops" `Quick test_clustering_reduces_ops ]
        @ cases ~suffix:" (BSD VM)" B.paging );
      ( "policy",
        cases ~suffix:"" U.policy
        @ [ Alcotest.test_case "second chance" `Quick test_second_chance_keeps_hot_pages ]
        @ cases ~suffix:" (BSD VM)" B.policy );
    ]
