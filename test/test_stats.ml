(* Sim.Stats accounting invariants.

   Every generic operation is derived from one field table, [Stats.fields],
   so a field added to the record but forgotten in the table (or paired
   with another field's accessor) would go unnoticed by the compiler.
   These tests close that hole with Obj: the record has mixed int/float
   fields, hence a regular block whose size is the field count and whose
   every field can be set generically. *)

let nfields = Obj.size (Obj.repr (Sim.Stats.create ()))

(* Set field [i] to a value derived from [seed]: ints get [seed + i],
   the (boxed) float field gets [float (seed + i)]. *)
let fill_fields (t : Sim.Stats.t) seed =
  let r = Obj.repr t in
  for i = 0 to nfields - 1 do
    if Obj.is_int (Obj.field r i) then Obj.set_field r i (Obj.repr (seed + i))
    else Obj.set_field r i (Obj.repr (float_of_int (seed + i)))
  done

let field_value (t : Sim.Stats.t) i =
  let f = Obj.field (Obj.repr t) i in
  if Obj.is_int f then float_of_int (Obj.obj f : int) else (Obj.obj f : float)

let test_field_count () =
  (* One boxed field: lock_wait_us.  The rest are immediate ints. *)
  let boxed = ref 0 in
  let r = Obj.repr (Sim.Stats.create ()) in
  for i = 0 to nfields - 1 do
    if not (Obj.is_int (Obj.field r i)) then incr boxed
  done;
  Alcotest.(check int) "exactly one float field" 1 !boxed

let test_to_rows_complete () =
  let t = Sim.Stats.create () in
  Alcotest.(check int)
    "to_rows covers every field"
    nfields
    (List.length (Sim.Stats.to_rows t));
  (* Declaration order: row i must report field i's value. *)
  fill_fields t 100;
  List.iteri
    (fun i (name, v) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "row %d (%s) = field %d" i name i)
        (field_value t i) v)
    (Sim.Stats.to_rows t);
  let names = List.map fst (Sim.Stats.to_rows t) in
  Alcotest.(check int)
    "row names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* The ledger-backed fault-ahead outcome counters, the swap-tier /
     swapcache counters and the sampler-facing gauges must be reported
     (and stay immediate ints, per the field-layout test above). *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " reported") true (List.mem n names))
    [
      "fault_ahead_used";
      "fault_ahead_wasted";
      "swap_devices_dead";
      "swap_failovers";
      "swap_migrations";
      "swap_cache_fills";
      "swap_cache_hits";
      "swap_cache_evictions";
      "free_pages";
      "active_pages";
      "inactive_pages";
      "swap_slots_used";
      "swapcache_pages";
      "oom_kills";
      "rlimit_denials";
      "proc_swapouts";
      "proc_swapins";
      "reserve_grabs";
    ]

(* The table covers every record field exactly once, in declaration
   order: each entry's getter reads field i and its setter writes it. *)
let test_table_covers_record () =
  Alcotest.(check int)
    "one table entry per record field" nfields
    (List.length Sim.Stats.fields);
  let t = Sim.Stats.create () in
  fill_fields t 100;
  List.iteri
    (fun i (f : Sim.Stats.field) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s reads field %d" f.name i)
        (field_value t i) (f.get t);
      f.set t 7.0;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s writes field %d" f.name i)
        7.0 (field_value t i))
    Sim.Stats.fields;
  Alcotest.(check (list string))
    "exactly the five gauges"
    [
      "free_pages";
      "active_pages";
      "inactive_pages";
      "swap_slots_used";
      "swapcache_pages";
    ]
    (List.filter_map
       (fun (f : Sim.Stats.field) ->
         if f.kind = Sim.Stats.Gauge then Some f.name else None)
       Sim.Stats.fields)

(* [add] sums counters but lets a gauge's latest level win. *)
let test_add_counters_and_gauges () =
  let into = Sim.Stats.create () in
  fill_fields into 10;
  let d = Sim.Stats.create () in
  fill_fields d 1000;
  Sim.Stats.add ~into d;
  List.iteri
    (fun i (f : Sim.Stats.field) ->
      let want =
        match f.kind with
        | Sim.Stats.Counter -> float_of_int (10 + i + 1000 + i)
        | Sim.Stats.Gauge -> float_of_int (1000 + i)
      in
      Alcotest.(check (float 0.0)) (f.name ^ " after add") want (f.get into))
    Sim.Stats.fields

let test_snapshot_independent () =
  let t = Sim.Stats.create () in
  fill_fields t 10;
  let snap = Sim.Stats.snapshot t in
  (* Snapshot reproduces every field... *)
  for i = 0 to nfields - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "snapshot field %d" i)
      (field_value t i) (field_value snap i)
  done;
  (* ...and stays put when the original moves on. *)
  fill_fields t 1000;
  for i = 0 to nfields - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "snapshot field %d unchanged" i)
      (float_of_int (10 + i))
      (field_value snap i)
  done

let test_diff_round_trip () =
  let before = Sim.Stats.create () in
  fill_fields before 10;
  let after = Sim.Stats.create () in
  fill_fields after 250;
  let d = Sim.Stats.diff ~after ~before in
  (* Every field must be the subtraction of the SAME field — a mis-paired
     subtraction in diff's record literal shows up as a wrong delta. *)
  for i = 0 to nfields - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "diff field %d" i)
      240.0
      (field_value d i)
  done;
  (* diff ~after:x ~before:(zeros) round-trips x. *)
  let zero = Sim.Stats.create () in
  let same = Sim.Stats.diff ~after ~before:zero in
  for i = 0 to nfields - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "identity diff field %d" i)
      (field_value after i) (field_value same i)
  done

let test_reset () =
  let t = Sim.Stats.create () in
  fill_fields t 7;
  Sim.Stats.reset t;
  for i = 0 to nfields - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "reset field %d" i)
      0.0
      (field_value t i)
  done

let () =
  Alcotest.run "stats"
    [
      ( "stats",
        [
          Alcotest.test_case "field layout" `Quick test_field_count;
          Alcotest.test_case "to_rows completeness" `Quick test_to_rows_complete;
          Alcotest.test_case "field table covers the record" `Quick
            test_table_covers_record;
          Alcotest.test_case "add: counters sum, gauges latest" `Quick
            test_add_counters_and_gauges;
          Alcotest.test_case "snapshot independence" `Quick
            test_snapshot_independent;
          Alcotest.test_case "diff round-trip" `Quick test_diff_round_trip;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
    ]
