(* Generic conformance suite: the same semantic checks run against BOTH
   VM systems through the common signature, including a randomized
   mmap/write/fork/destroy oracle test.  Whatever their internals, the two
   systems must implement identical user-visible memory semantics. *)

module Vt = Vmiface.Vmtypes

module Conformance (V : sig
  include Vmiface.Vm_sig.VM_SYS

  val pmap : vmspace -> Pmap.t

  val wired_entries : vmspace -> int
  (** Map entries whose wire count is nonzero. *)
end) =
struct
  let mk () =
    let config =
      { Vmiface.Machine.default_config with ram_pages = 1024; swap_pages = 4096 }
    in
    let sys = V.boot ~config () in
    (sys, V.new_vmspace sys)

  let write sys vm ~vpn s = V.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string s)
  let read sys vm ~vpn n = Bytes.to_string (V.read_bytes sys vm ~addr:(vpn * 4096) ~len:n)

  let test_boundary_straddling_write () =
    let sys, vm = mk () in
    let vpn = V.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    (* Write across the page boundary. *)
    V.write_bytes sys vm ~addr:((vpn * 4096) + 4090) (Bytes.of_string "straddling!");
    let got = Bytes.to_string (V.read_bytes sys vm ~addr:((vpn * 4096) + 4090) ~len:11) in
    Alcotest.(check string) "straddle roundtrip" "straddling!" got

  let test_mprotect_blocks_then_allows () =
    let sys, vm = mk () in
    let vpn = V.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    write sys vm ~vpn "abc";
    V.mprotect sys vm ~vpn ~npages:2 Pmap.Prot.read;
    (try
       write sys vm ~vpn "nope";
       Alcotest.fail "write should be denied"
     with Vt.Segv { error = Vt.Prot_denied; _ } -> ());
    Alcotest.(check string) "read still works" "abc" (read sys vm ~vpn 3);
    V.mprotect sys vm ~vpn ~npages:2 Pmap.Prot.rw;
    write sys vm ~vpn "xyz";
    Alcotest.(check string) "write after re-enable" "xyz" (read sys vm ~vpn 3)

  let test_munmap_then_access_faults () =
    let sys, vm = mk () in
    let vpn = V.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    write sys vm ~vpn "gone";
    V.munmap sys vm ~vpn ~npages:4;
    try
      ignore (read sys vm ~vpn 4);
      Alcotest.fail "expected Segv"
    with Vt.Segv { error = Vt.No_entry; _ } -> ()

  let test_shared_file_two_processes () =
    let sys, vm1 = mk () in
    let vm2 = V.new_vmspace sys in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/shared2" ~size:8192 in
    let a = V.mmap sys vm1 ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Shared (Vt.File (vn, 0)) in
    let b = V.mmap sys vm2 ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Shared (Vt.File (vn, 0)) in
    write sys vm1 ~vpn:a "from-vm1";
    Alcotest.(check string) "vm2 sees vm1's shared write" "from-vm1" (read sys vm2 ~vpn:b 8)

  let test_mmap_offset_within_file () =
    let sys, vm = mk () in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/offset" ~size:16384 in
    (* Map only the third page of the file. *)
    let vpn = V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 2)) in
    Alcotest.(check char) "page-2 data" (Vfs.file_byte ~name:"/offset" ~off:(2 * 4096))
      (Bytes.get (V.read_bytes sys vm ~addr:(vpn * 4096) ~len:1) 0)

  let test_fixed_address_mapping () =
    let sys, vm = mk () in
    let vpn = V.mmap sys vm ~fixed_at:5000 ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    Alcotest.(check int) "placed exactly" 5000 vpn;
    Alcotest.check_raises "overlap rejected"
      (Invalid_argument
         (if V.name = "UVM" then "Uvm_map.insert: range not free"
          else "Vm_map.insert_default: range not free"))
      (fun () ->
        ignore
          (V.mmap sys vm ~fixed_at:5001 ~npages:2 ~prot:Pmap.Prot.rw
             ~share:Vt.Private Vt.Zero))

  (* Randomized oracle: private memory + forks + writes; every process
     must always read exactly what the pure model predicts. *)
  let prop_oracle =
    QCheck.Test.make
      ~name:(Printf.sprintf "%s matches oracle" V.name)
      ~count:25
      QCheck.(list (triple (int_range 0 9) (int_range 0 11) small_int))
      (fun ops ->
        let sys, root = mk () in
        let npages = 12 in
        let z = V.mmap sys root ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
        let procs = ref [ (root, Array.make npages '\000') ] in
        List.iter
          (fun (op, page, v) ->
            let idx = v mod List.length !procs in
            let vm, model = List.nth !procs idx in
            match op with
            | 0 | 1 | 2 | 3 | 4 ->
                let ch = Char.chr (32 + ((v * 7) mod 95)) in
                V.write_bytes sys vm ~addr:((z + page) * 4096) (Bytes.make 1 ch);
                model.(page) <- ch
            | 5 | 6 ->
                (* Read-verify a random page right now. *)
                let got = Bytes.get (V.read_bytes sys vm ~addr:((z + page) * 4096) ~len:1) 0 in
                if got <> model.(page) then failwith "oracle mismatch mid-run"
            | 7 | 8 ->
                if List.length !procs < 5 then
                  procs := (V.fork sys vm, Array.copy model) :: !procs
            | _ ->
                if List.length !procs > 1 then begin
                  V.destroy_vmspace sys vm;
                  procs := List.filteri (fun i _ -> i <> idx) !procs
                end)
          ops;
        let ok =
          List.for_all
            (fun (vm, model) ->
              List.for_all
                (fun i ->
                  Bytes.get (V.read_bytes sys vm ~addr:((z + i) * 4096) ~len:1) 0
                  = model.(i))
                (List.init npages Fun.id))
            !procs
        in
        List.iter (fun (vm, _) -> V.destroy_vmspace sys vm) !procs;
        ok)

  (* Wiring a writable private mapping resolves the copy-on-write at
     once, so a later write keeps the wired frame. *)
  let test_wire_fault_resolves_cow () =
    let sys, vm = mk () in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/wired" ~size:4096 in
    let vpn = V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
    V.mlock sys vm ~vpn ~npages:1;
    (* The wired page must already be the private copy: writing now must not
       replace the frame. *)
    let pte = Option.get (Pmap.lookup (V.pmap vm) ~vpn) in
    let frame_before = pte.Pmap.page.Physmem.Page.id in
    Alcotest.(check bool) "wired" true (pte.Pmap.page.Physmem.Page.wire_count > 0);
    V.touch sys vm ~vpn Vt.Write;
    let pte2 = Option.get (Pmap.lookup (V.pmap vm) ~vpn) in
    Alcotest.(check int) "same frame after write" frame_before
      pte2.Pmap.page.Physmem.Page.id;
    V.munlock sys vm ~vpn ~npages:1;
    Alcotest.(check int) "unwired" 0 pte2.Pmap.page.Physmem.Page.wire_count

  (* Wiring a range with a hole in it raises Segv at the hole and
     leaves nothing behind: the pages wired before it are unwired again
     and no map entry stays marked wired, so the process can still exit
     with a clean audit. *)
  let test_wire_over_hole_unwinds () =
    let sys, vm = mk () in
    let vpn =
      V.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    write sys vm ~vpn "resident";
    V.munmap sys vm ~vpn:(vpn + 2) ~npages:1;
    let wired_frames () =
      List.length
        (List.filter
           (fun (_, (pte : Pmap.pte)) ->
             pte.Pmap.page.Physmem.Page.wire_count > 0)
           (Pmap.translations (V.pmap vm)))
    in
    let expect_segv what f =
      (match f () with
      | () -> Alcotest.failf "%s over a hole: expected Segv" what
      | exception Vt.Segv { vpn = at; error = Vt.No_entry } ->
          Alcotest.(check int) (what ^ " faults at the hole") (vpn + 2) at);
      Alcotest.(check int) (what ^ ": no frame wired") 0 (wired_frames ());
      Alcotest.(check int) (what ^ ": no entry wired") 0 (V.wired_entries vm)
    in
    expect_segv "vslock" (fun () -> ignore (V.vslock sys vm ~vpn ~npages:4));
    expect_segv "mlock" (fun () -> V.mlock sys vm ~vpn ~npages:4);
    V.destroy_vmspace sys vm;
    V.audit sys

  let suite =
    [
      Alcotest.test_case "straddling write" `Quick test_boundary_straddling_write;
      Alcotest.test_case "mprotect" `Quick test_mprotect_blocks_then_allows;
      Alcotest.test_case "munmap faults" `Quick test_munmap_then_access_faults;
      Alcotest.test_case "shared file 2 procs" `Quick test_shared_file_two_processes;
      Alcotest.test_case "file offset" `Quick test_mmap_offset_within_file;
      Alcotest.test_case "fixed address" `Quick test_fixed_address_mapping;
      Alcotest.test_case "wire resolves cow" `Quick test_wire_fault_resolves_cow;
      Alcotest.test_case "wire over hole unwinds" `Quick
        test_wire_over_hole_unwinds;
      QCheck_alcotest.to_alcotest prop_oracle;
    ]
end

module U = Conformance (struct
  include Uvm.Sys

  let pmap vm = vm.pmap

  let wired_entries vm =
    List.length
      (List.filter (fun e -> e.Uvm.Map.wired > 0) (Uvm.Map.entries vm.map))
end)

module B = Conformance (struct
  include Bsdvm.Sys

  let pmap vm = vm.pmap

  let wired_entries vm =
    List.length
      (List.filter (fun e -> e.Bsdvm.Map.wired > 0) (Bsdvm.Map.entries vm.map))
end)

(* Cross-system comparison: both systems, same workload, identical
   user-visible results page by page. *)
let test_cross_system_agreement () =
  let run (module V : Vmiface.Vm_sig.VM_SYS) =
    let config =
      { Vmiface.Machine.default_config with ram_pages = 256; swap_pages = 2048 }
    in
    let sys = V.boot ~config () in
    let vm = V.new_vmspace sys in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/agree" ~size:(8 * 4096) in
    let f = V.mmap sys vm ~npages:8 ~prot:Pmap.Prot.rw ~share:Vt.Private (Vt.File (vn, 0)) in
    let z = V.mmap sys vm ~npages:100 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    let rng = Sim.Rng.create ~seed:99 in
    for _ = 1 to 400 do
      let p = Sim.Rng.int rng 100 in
      V.write_bytes sys vm ~addr:((z + p) * 4096) (Bytes.of_string (string_of_int p))
    done;
    V.write_bytes sys vm ~addr:((f + 3) * 4096) (Bytes.of_string "private");
    let child = V.fork sys vm in
    V.write_bytes sys child ~addr:(z * 4096) (Bytes.of_string "CH");
    let dump vmx =
      List.map (fun i -> Bytes.to_string (V.read_bytes sys vmx ~addr:((z + i) * 4096) ~len:4))
        (List.init 100 Fun.id)
      @ List.map (fun i -> Bytes.to_string (V.read_bytes sys vmx ~addr:((f + i) * 4096) ~len:4))
          (List.init 8 Fun.id)
    in
    (dump vm, dump child)
  in
  let u = run (module Uvm.Sys) and b = run (module Bsdvm.Sys) in
  Alcotest.(check bool) "parent views identical" true (fst u = fst b);
  Alcotest.(check bool) "child views identical" true (snd u = snd b)

let () =
  Alcotest.run "vm_generic"
    [
      ("uvm", U.suite);
      ("bsdvm", B.suite);
      ( "cross-system",
        [ Alcotest.test_case "agreement" `Quick test_cross_system_agreement ] );
    ]
