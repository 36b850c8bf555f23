(* Tests for the sim substrate: doubly-linked lists, the clock, the disk
   cost model, deterministic RNG and statistics. *)

let test_dlist_basic () =
  let l = Sim.Dlist.create () in
  Alcotest.(check bool) "empty" true (Sim.Dlist.is_empty l);
  let _n1 = Sim.Dlist.push_tail l 1 in
  let _n2 = Sim.Dlist.push_tail l 2 in
  let _n3 = Sim.Dlist.push_head l 0 in
  Alcotest.(check int) "length" 3 (Sim.Dlist.length l);
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Sim.Dlist.to_list l)

let test_dlist_remove () =
  let l = Sim.Dlist.create () in
  let n1 = Sim.Dlist.push_tail l 1 in
  let n2 = Sim.Dlist.push_tail l 2 in
  let _n3 = Sim.Dlist.push_tail l 3 in
  Sim.Dlist.remove l n2;
  Alcotest.(check (list int)) "mid removed" [ 1; 3 ] (Sim.Dlist.to_list l);
  Sim.Dlist.remove l n1;
  Alcotest.(check (list int)) "head removed" [ 3 ] (Sim.Dlist.to_list l);
  Alcotest.check_raises "double remove"
    (Invalid_argument "Dlist.remove: node not on this list") (fun () ->
      Sim.Dlist.remove l n1)

let test_dlist_pop () =
  let l = Sim.Dlist.create () in
  ignore (Sim.Dlist.push_tail l 1);
  ignore (Sim.Dlist.push_tail l 2);
  Alcotest.(check (option int)) "pop head" (Some 1) (Sim.Dlist.pop_head l);
  Alcotest.(check (option int)) "pop tail" (Some 2) (Sim.Dlist.pop_tail l);
  Alcotest.(check (option int)) "pop empty" None (Sim.Dlist.pop_head l)

let test_dlist_on_list () =
  let l1 = Sim.Dlist.create () and l2 = Sim.Dlist.create () in
  let n = Sim.Dlist.push_tail l1 42 in
  Alcotest.(check bool) "on l1" true (Sim.Dlist.on_list n l1);
  Alcotest.(check bool) "not on l2" false (Sim.Dlist.on_list n l2);
  Sim.Dlist.remove l1 n;
  Alcotest.(check bool) "off after remove" false (Sim.Dlist.on_list n l1)

(* Property: a Dlist driven by pushes mirrors a reference list. *)
let prop_dlist_model =
  QCheck.Test.make ~name:"dlist matches list model" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let l = Sim.Dlist.create () in
      let model = ref [] in
      List.iter
        (fun (at_head, v) ->
          if at_head then begin
            ignore (Sim.Dlist.push_head l v);
            model := v :: !model
          end
          else begin
            ignore (Sim.Dlist.push_tail l v);
            model := !model @ [ v ]
          end)
        ops;
      Sim.Dlist.to_list l = !model && Sim.Dlist.length l = List.length !model)

let test_clock () =
  let c = Sim.Simclock.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Sim.Simclock.now c);
  Sim.Simclock.advance c 12.5;
  Sim.Simclock.advance c 7.5;
  Alcotest.(check (float 1e-9)) "monotone sum" 20.0 (Sim.Simclock.now c);
  Alcotest.check_raises "negative"
    (Invalid_argument "Simclock.advance: negative or non-finite duration")
    (fun () -> Sim.Simclock.advance c (-1.0))

let io_ok = function
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected I/O error: %s" (Sim.Fault_plan.string_of_error e)

let test_disk_costs () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let d = Sim.Disk.create ~clock ~costs:Sim.Cost_model.default ~stats in
  let c = Sim.Cost_model.default in
  io_ok (Sim.Disk.read d ~slot:Sim.Disk.no_slot ~npages:1);
  let one = Sim.Simclock.now clock in
  Alcotest.(check (float 1e-6))
    "1-page read"
    (c.Sim.Cost_model.disk_op_latency +. c.Sim.Cost_model.disk_page_transfer)
    one;
  io_ok (Sim.Disk.read d ~slot:Sim.Disk.no_slot ~npages:16);
  Alcotest.(check (float 1e-6))
    "16-page clustered read"
    (c.Sim.Cost_model.disk_op_latency
    +. (16.0 *. c.Sim.Cost_model.disk_page_transfer))
    (Sim.Simclock.now clock -. one);
  Alcotest.(check int) "ops counted" 2 (Sim.Disk.read_ops d);
  Alcotest.(check int) "pages counted" 17 (Sim.Disk.pages_read d)

let test_disk_sequential () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let d = Sim.Disk.create ~clock ~costs:Sim.Cost_model.default ~stats in
  io_ok (Sim.Disk.read ~sequential:true d ~slot:Sim.Disk.no_slot ~npages:4);
  let c = Sim.Cost_model.default in
  Alcotest.(check (float 1e-6))
    "no seek when sequential"
    (4.0 *. c.Sim.Cost_model.disk_page_transfer)
    (Sim.Simclock.now clock)

let test_rng_determinism () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done;
  let c = Sim.Rng.create ~seed:8 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Sim.Rng.int a 1000 <> Sim.Rng.int c 1000 then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_shuffle_permutes () =
  let rng = Sim.Rng.create ~seed:3 in
  let arr = Array.init 100 Fun.id in
  Sim.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 100 Fun.id) sorted

let test_stats_diff () =
  let a = Sim.Stats.create () in
  a.Sim.Stats.faults <- 10;
  a.Sim.Stats.pageins <- 3;
  let before = Sim.Stats.snapshot a in
  a.Sim.Stats.faults <- 25;
  let d = Sim.Stats.diff ~after:a ~before in
  Alcotest.(check int) "delta faults" 15 d.Sim.Stats.faults;
  Alcotest.(check int) "delta pageins" 0 d.Sim.Stats.pageins

let test_stats_rows () =
  let s = Sim.Stats.create () in
  s.Sim.Stats.cow_copies <- 4;
  let rows = Sim.Stats.to_rows s in
  Alcotest.(check (float 0.0)) "row value" 4.0 (List.assoc "cow_copies" rows)

let () =
  Alcotest.run "sim"
    [
      ( "dlist",
        [
          Alcotest.test_case "basic" `Quick test_dlist_basic;
          Alcotest.test_case "remove" `Quick test_dlist_remove;
          Alcotest.test_case "pop" `Quick test_dlist_pop;
          Alcotest.test_case "on_list" `Quick test_dlist_on_list;
          QCheck_alcotest.to_alcotest prop_dlist_model;
        ] );
      ("clock", [ Alcotest.test_case "advance" `Quick test_clock ]);
      ( "disk",
        [
          Alcotest.test_case "costs" `Quick test_disk_costs;
          Alcotest.test_case "sequential" `Quick test_disk_sequential;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest prop_rng_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "diff" `Quick test_stats_diff;
          Alcotest.test_case "rows" `Quick test_stats_rows;
        ] );
    ]
