(* Anons and amaps: reference counting at both granularities, the
   needs-copy copy, splitref/ppref semantics, extension. *)

let mk () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 128; swap_pages = 256 }
  in
  Uvm.State.create (Vmiface.Machine.boot ~config ())

let stats sys = Uvm.State.stats sys

let test_anon_lifecycle () =
  let sys = mk () in
  let anon = Uvm.Anon.alloc sys ~zero:true in
  Alcotest.(check bool) "resident" true (Uvm.Anon.is_resident anon);
  Alcotest.(check bool) "writable in place" true (Uvm.Anon.writable_in_place anon);
  Uvm.Anon.ref_ anon;
  Alcotest.(check bool) "not writable when shared" false
    (Uvm.Anon.writable_in_place anon);
  Uvm.Anon.unref sys anon;
  Alcotest.(check int) "still alive" 1 anon.Uvm.Anon.refs;
  let free_before = Physmem.free_count (Uvm.State.physmem sys) in
  Uvm.Anon.unref sys anon;
  Alcotest.(check int) "page freed" (free_before + 1)
    (Physmem.free_count (Uvm.State.physmem sys));
  Alcotest.(check int) "anon freed stat" 1 (stats sys).Sim.Stats.anons_freed

let test_anon_swap_roundtrip () =
  let sys = mk () in
  let anon = Uvm.Anon.alloc sys ~zero:false in
  let page = Option.get anon.Uvm.Anon.page in
  Bytes.fill page.Physmem.Page.data 0 4096 'q';
  let slot = Option.get (Swap.Swaptier.alloc_slots (Uvm.State.swapdev sys) ~n:1) in
  Uvm.Anon.set_swslot sys anon slot;
  (match Swap.Swaptier.write_cluster (Uvm.State.swapdev sys) ~slot ~pages:[| page |] ~n:1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unexpected swap write error");
  (* Simulate pageout completion. *)
  Pmap.page_remove_all (Uvm.State.pmap_ctx sys) page;
  anon.Uvm.Anon.page <- None;
  Physmem.free_page (Uvm.State.physmem sys) page;
  let fresh =
    match Uvm.Anon.ensure_resident sys anon with
    | Ok p -> p
    | Error e ->
        Alcotest.failf "unexpected pagein error: %s"
          (Vmiface.Vmtypes.string_of_fault_error e)
  in
  Alcotest.(check char) "data back from swap" 'q'
    (Bytes.get fresh.Physmem.Page.data 123);
  Alcotest.(check int) "pagein counted" 1 (stats sys).Sim.Stats.pageins

let test_anon_swslot_replacement_frees () =
  let sys = mk () in
  let dev = Uvm.State.swapdev sys in
  let anon = Uvm.Anon.alloc sys ~zero:true in
  let s1 = Option.get (Swap.Swaptier.alloc_slots dev ~n:1) in
  Uvm.Anon.set_swslot sys anon s1;
  let used = Swap.Swaptier.slots_in_use dev in
  let s2 = Option.get (Swap.Swaptier.alloc_slots dev ~n:1) in
  Uvm.Anon.set_swslot sys anon s2;
  Alcotest.(check int) "old slot released" used (Swap.Swaptier.slots_in_use dev);
  Uvm.Anon.unref sys anon;
  Alcotest.(check int) "all swap released" 0 (Swap.Swaptier.slots_in_use dev)

let check_ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant: " ^ msg)

let test_amap_slots () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:8 in
  Alcotest.(check int) "empty" 0 (Uvm.Amap.slots_used am);
  let a = Uvm.Anon.alloc sys ~zero:true in
  Uvm.Amap.add sys am ~slot:3 a;
  Alcotest.(check bool) "lookup hit" true
    (match Uvm.Amap.lookup am ~slot:3 with Some x -> x == a | None -> false);
  Alcotest.(check bool) "lookup miss" true (Uvm.Amap.lookup am ~slot:2 = None);
  Alcotest.check_raises "occupied" (Invalid_argument "Uvm_amap.add: slot occupied")
    (fun () -> Uvm.Amap.add sys am ~slot:3 a);
  let b = Uvm.Anon.alloc sys ~zero:true in
  Uvm.Amap.replace sys am ~slot:3 b;
  Alcotest.(check int) "old anon released by replace" 0 a.Uvm.Anon.refs;
  Uvm.Amap.clear_slot sys am ~slot:3;
  Alcotest.(check int) "cleared" 0 (Uvm.Amap.slots_used am);
  check_ok (Uvm.Amap.check_invariants am)

let test_amap_copy_shares_anons () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:4 in
  let a0 = Uvm.Anon.alloc sys ~zero:true in
  let a2 = Uvm.Anon.alloc sys ~zero:true in
  Uvm.Amap.add sys am ~slot:0 a0;
  Uvm.Amap.add sys am ~slot:2 a2;
  let copy = Uvm.Amap.copy sys am ~slotoff:0 ~len:4 in
  Alcotest.(check int) "anon refs bumped" 2 a0.Uvm.Anon.refs;
  Alcotest.(check bool) "same anon aliased" true
    (match Uvm.Amap.lookup copy ~slot:2 with Some x -> x == a2 | None -> false);
  Uvm.Amap.unref_range sys copy ~slotoff:0 ~len:4;
  Alcotest.(check int) "copy release drops anon refs" 1 a0.Uvm.Anon.refs;
  Alcotest.(check int) "amap freed stat" 1 (stats sys).Sim.Stats.amaps_freed;
  check_ok (Uvm.Amap.check_invariants am)

let test_partial_copy_range () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:6 in
  for i = 0 to 5 do
    Uvm.Amap.add sys am ~slot:i (Uvm.Anon.alloc sys ~zero:true)
  done;
  let copy = Uvm.Amap.copy sys am ~slotoff:2 ~len:3 in
  Alcotest.(check int) "copy sized to range" 3 copy.Uvm.Amap.nslots;
  Alcotest.(check bool) "slot aliasing offset" true
    (match (Uvm.Amap.lookup copy ~slot:0, Uvm.Amap.lookup am ~slot:2) with
    | Some x, Some y -> x == y
    | _ -> false);
  Uvm.Amap.unref_range sys copy ~slotoff:0 ~len:3

let test_splitref_then_partial_unref () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:8 in
  let anons = Array.init 8 (fun _ -> Uvm.Anon.alloc sys ~zero:true) in
  Array.iteri (fun i a -> Uvm.Amap.add sys am ~slot:i a) anons;
  (* A map entry covering all 8 slots is clipped into [0,3) and [3,8). *)
  Uvm.Amap.splitref am;
  Alcotest.(check int) "two refs" 2 am.Uvm.Amap.refs;
  Alcotest.(check bool) "ppref established" true (am.Uvm.Amap.ppref <> None);
  (* Unmapping the first part must free exactly its anons. *)
  Uvm.Amap.unref_range sys am ~slotoff:0 ~len:3;
  Alcotest.(check int) "front anons freed" 0 anons.(0).Uvm.Anon.refs;
  Alcotest.(check int) "back anons alive" 1 anons.(5).Uvm.Anon.refs;
  Alcotest.(check int) "slots used" 5 (Uvm.Amap.slots_used am);
  check_ok (Uvm.Amap.check_invariants am);
  Uvm.Amap.unref_range sys am ~slotoff:3 ~len:5;
  Alcotest.(check int) "rest freed" 0 anons.(5).Uvm.Anon.refs

let test_ref_range_subrange () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:4 in
  let anons = Array.init 4 (fun _ -> Uvm.Anon.alloc sys ~zero:true) in
  Array.iteri (fun i a -> Uvm.Amap.add sys am ~slot:i a) anons;
  Uvm.Amap.ref_range am ~slotoff:1 ~len:2;
  Alcotest.(check int) "refs" 2 am.Uvm.Amap.refs;
  (* Original whole-range reference goes away; the subrange survivor must
     keep slots 1-2 alive and release 0 and 3. *)
  Uvm.Amap.unref_range sys am ~slotoff:0 ~len:4;
  Alcotest.(check int) "outside freed" 0 anons.(0).Uvm.Anon.refs;
  Alcotest.(check int) "inside kept" 1 anons.(1).Uvm.Anon.refs;
  Uvm.Amap.unref_range sys am ~slotoff:1 ~len:2;
  Alcotest.(check int) "all freed" 0 anons.(1).Uvm.Anon.refs

let test_extend () =
  let sys = mk () in
  let am = Uvm.Amap.create sys ~nslots:4 in
  Uvm.Amap.add sys am ~slot:3 (Uvm.Anon.alloc sys ~zero:true);
  Uvm.Amap.extend am ~by:4;
  Alcotest.(check int) "grown" 8 am.Uvm.Amap.nslots;
  Alcotest.(check bool) "old content kept" true (Uvm.Amap.lookup am ~slot:3 <> None);
  Alcotest.(check bool) "new slots empty" true (Uvm.Amap.lookup am ~slot:6 = None);
  Uvm.Amap.splitref am;
  Alcotest.check_raises "cannot extend shared"
    (Invalid_argument "Uvm_amap.extend: amap is shared or partially referenced")
    (fun () -> Uvm.Amap.extend am ~by:1);
  check_ok (Uvm.Amap.check_invariants am)

(* Property: random sequences of amap operations never violate the
   structural invariants, and total anon references stay consistent with
   slot occupancy. *)
let prop_amap_invariants =
  QCheck.Test.make ~name:"amap invariants under random ops" ~count:60
    QCheck.(list (pair (int_range 0 4) (int_range 0 7)))
    (fun ops ->
      let sys = mk () in
      let am = Uvm.Amap.create sys ~nslots:8 in
      (* Outstanding references beyond the base one, with the exact range
         each covers — unref must mirror a reference actually taken, as in
         the map layer. *)
      let held = ref [] in
      List.iter
        (fun (op, slot) ->
          if am.Uvm.Amap.refs > 0 then
            match op with
            | 0 ->
                if Uvm.Amap.lookup am ~slot = None then
                  Uvm.Amap.add sys am ~slot (Uvm.Anon.alloc sys ~zero:true)
            | 1 -> Uvm.Amap.clear_slot sys am ~slot
            | 2 -> Uvm.Amap.replace sys am ~slot (Uvm.Anon.alloc sys ~zero:true)
            | 3 ->
                let slotoff = slot mod 4 and len = 1 + (slot mod 4) in
                Uvm.Amap.ref_range am ~slotoff ~len;
                held := (slotoff, len) :: !held
            | _ -> (
                match !held with
                | (slotoff, len) :: rest ->
                    Uvm.Amap.unref_range sys am ~slotoff ~len;
                    held := rest
                | [] -> ()))
        ops;
      Uvm.Amap.check_invariants am = Ok ())

let () =
  Alcotest.run "amap"
    [
      ( "anon",
        [
          Alcotest.test_case "lifecycle" `Quick test_anon_lifecycle;
          Alcotest.test_case "swap roundtrip" `Quick test_anon_swap_roundtrip;
          Alcotest.test_case "swslot replacement" `Quick test_anon_swslot_replacement_frees;
        ] );
      ( "amap",
        [
          Alcotest.test_case "slots" `Quick test_amap_slots;
          Alcotest.test_case "copy shares anons" `Quick test_amap_copy_shares_anons;
          Alcotest.test_case "partial copy" `Quick test_partial_copy_range;
          Alcotest.test_case "splitref + partial unref" `Quick test_splitref_then_partial_unref;
          Alcotest.test_case "subrange refs" `Quick test_ref_range_subrange;
          Alcotest.test_case "extend" `Quick test_extend;
          QCheck_alcotest.to_alcotest prop_amap_invariants;
        ] );
    ]
