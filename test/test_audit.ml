(* The invariant auditor driven through the torture harness: seeded
   corruptions must be caught, attributed to the right subsystem, and
   shrunk to a small repro; clean fixed-seed runs must stay clean on both
   kernels, with and without injected I/O faults. *)

module T = Oslayer.Torture

let cfg ~seed ~nops ~audit_every =
  { T.default_cfg with T.seed; nops; audit_every; artifact_dir = None }

let test_fixed_seed_clean () =
  let r = T.run (cfg ~seed:42 ~nops:3000 ~audit_every:50) in
  (match r.T.r_bug with
  | None -> ()
  | Some b -> Alcotest.failf "unexpected bug: %s" (T.string_of_bug b));
  Alcotest.(check int) "all ops executed" 3000 (List.length r.T.r_trace)

let test_fixed_seed_clean_under_faults () =
  let c = { (cfg ~seed:7 ~nops:1500 ~audit_every:25) with T.faults = true } in
  match (T.run c).T.r_bug with
  | None -> ()
  | Some b ->
      Alcotest.failf "unexpected bug under faults: %s" (T.string_of_bug b)

(* Same oracle over a fast+slow tier pair: the cross-tier slot-ownership
   audit (device bases, swapcache claims) stays clean, and the wired
   mprotect / shared-amap mlock candidates run against live tiers. *)
let test_fixed_seed_clean_tiered () =
  let c = { (cfg ~seed:13 ~nops:2000 ~audit_every:25) with T.tiers = true } in
  match (T.run c).T.r_bug with
  | None -> ()
  | Some b -> Alcotest.failf "unexpected bug with tiers: %s" (T.string_of_bug b)

(* The differential oracle itself is deterministic: the same seed yields
   the identical op trace on every run. *)
let test_trace_reproducible () =
  let r1 = T.run (cfg ~seed:11 ~nops:500 ~audit_every:50) in
  let r2 = T.run (cfg ~seed:11 ~nops:500 ~audit_every:50) in
  Alcotest.(check bool) "same trace" true (r1.T.r_trace = r2.T.r_trace)

let regress_dir = Filename.concat (Filename.dirname Sys.executable_name) "regress"

(* Replay one crash file of [regress/] with an audit after each op: no
   bug, and no op skipped as inapplicable. *)
let replay_file f =
  let text =
    In_channel.with_open_bin (Filename.concat regress_dir f) In_channel.input_all
  in
  let cfg, ops = T.read_crash (Sim.Json.parse text) in
  match T.replay { cfg with T.audit_every = 1 } ops with
  | Some b, _ -> Alcotest.failf "%s: %s" f (T.string_of_bug b)
  | None, executed ->
      Alcotest.(check int) (f ^ ": every op executed") (List.length ops) executed

(* Shrunk from seed 53: a vslock'd anon range is loaned to a pipe, made
   inaccessible, written (the fault fails), and then unlocked.  The
   loaned, wired frames must keep every wiring the token holds, so the
   final vsunlock finds each page still wired on both kernels. *)
let test_vslock_loan_unwire () = replay_file "seed-53-vslock-loan.json"

(* Shrunk from seed 32: a vslock'd page is sent by map-entry passing and
   then written.  Mexp declines wired translations and copies instead,
   so the write fault leaves the vslock wiring on the sender's frame and
   closing the pipe frees an unwired kernel copy. *)
let test_vslock_mexp_write () = replay_file "seed-32-vslock-mexp.json"

(* Every crash file in [regress/] replays clean: a torture crash, once
   fixed, stays fixed by dropping its crash.json there. *)
let test_regress_corpus () =
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir regress_dir)))
  in
  Alcotest.(check bool) "corpus not empty" true (files <> []);
  List.iter replay_file files

(* The op codec over generated traces, with faults on and off: every op
   round-trips through [encode] and [decode], and through its crash-file
   object; an object with an unknown name, a missing operand or index, or
   a non-int operand raises [Failure] and nothing else. *)
let codec_property =
  QCheck.Test.make ~name:"op codec round-trips" ~count:25
    QCheck.(triple (int_range 1 100_000) bool (int_bound 1_000))
    (fun (seed, faults, pick) ->
      let r = T.run { (cfg ~seed ~nops:150 ~audit_every:0) with T.faults } in
      let fails fields =
        match T.op_of_json (Sim.Json.Object fields) with
        | _ -> false
        | exception Failure _ -> true
      in
      let non_ints = Sim.Json.[ String "1"; Float (1.0, 1); Bool true; Null ] in
      let set key v fields =
        List.map (fun (k, v') -> (k, if k = key then v else v')) fields
      in
      List.for_all
        (fun (i, op) ->
          let name, operands = T.encode op in
          let fields =
            ("i", Sim.Json.Int i) :: ("op", String name)
            :: List.map (fun (k, v) -> (k, Sim.Json.Int v)) operands
          in
          (* [pick] and the index choose the operand to break, and how. *)
          let nth l = List.nth l ((pick + i) mod List.length l) in
          let k = fst (nth operands) and bad = nth non_ints in
          T.decode name operands = op
          && T.op_of_json (Object fields) = (i, op)
          && fails (set "op" (Sim.Json.String ("no_" ^ name)) fields)
          && fails (List.remove_assoc k fields)
          && fails (List.remove_assoc "i" fields)
          && fails (set k bad fields))
        r.T.r_trace)

let corruption_case ?(tiers = false) kind subsys () =
  let c =
    {
      (cfg ~seed:42 ~nops:2000 ~audit_every:5) with
      T.corrupt = Some (500, kind);
      shrink = true;
      tiers;
    }
  in
  let r = T.run c in
  (match r.T.r_bug with
  | Some (T.Audit_bug { f; _ }) ->
      Alcotest.(check string) "caught in UVM" "UVM" f.Check.system;
      Alcotest.(check string) "right subsystem"
        (Check.subsystem_name subsys)
        (Check.subsystem_name f.Check.subsys)
  | Some b -> Alcotest.failf "wrong bug class: %s" (T.string_of_bug b)
  | None -> Alcotest.fail "corruption not caught by any audit");
  match r.T.r_minimal with
  | None -> Alcotest.fail "shrinker produced no repro"
  | Some ops ->
      if List.length ops > 20 then
        Alcotest.failf "repro not minimal: %d ops" (List.length ops)

(* A failing run writes its crash file, and the file replays: the same
   run as [uvm_sim torture --seed 42 --ops 600 --audit-every 10 --corrupt
   overref-anon --corrupt-at 300 --shrink], whose repro shrinks to two
   ops.  The file decodes to the run's config, trace and repro, and the
   decoded repro fails again in the same place. *)
let test_crash_artifact () =
  let dir = Filename.temp_dir "uvm-torture" "" in
  let c =
    {
      (cfg ~seed:42 ~nops:600 ~audit_every:10) with
      T.corrupt = Some (300, T.Overref_anon);
      shrink = true;
      artifact_dir = Some dir;
    }
  in
  let r = T.run c in
  let seed_dir = Filename.concat dir "seed-42" in
  let files = List.sort compare (Array.to_list (Sys.readdir seed_dir)) in
  let read f =
    In_channel.with_open_bin (Filename.concat seed_dir f) In_channel.input_all
  in
  (* Every .json file parses. *)
  let docs =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".json" then Some (f, Sim.Json.parse (read f))
        else None)
      files
  in
  List.iter (fun f -> Sys.remove (Filename.concat seed_dir f)) files;
  Sys.rmdir seed_dir;
  Sys.rmdir dir;
  Alcotest.(check (list string)) "seven files"
    [ "crash.json"; "events.txt"; "lockstat.json"; "metrics.json";
      "spans.json"; "stats.json"; "trace.chrome.json" ]
    files;
  let crash = List.assoc "crash.json" docs in
  let field k = Sim.Json.member k crash in
  Alcotest.(check string) "schema" "uvm-sim-torture/1"
    (Sim.Json.to_str (field "schema"));
  Alcotest.(check string) "failure kind" "audit"
    (Sim.Json.to_str (Sim.Json.member "kind" (field "failure")));
  let shown = List.map (fun (i, op) -> (i, T.op_to_string op)) in
  let ops = Alcotest.(list (pair int string)) in
  let rcfg, minimal = T.read_crash crash in
  Alcotest.(check bool) "config" true
    (rcfg = { c with T.shrink = false; artifact_dir = None });
  Alcotest.check ops "minimal"
    (shown (Option.get r.T.r_minimal))
    (shown minimal);
  let whole =
    match crash with
    | Object fields -> Sim.Json.Object (List.remove_assoc "minimal" fields)
    | _ -> Alcotest.fail "crash.json is no object"
  in
  Alcotest.check ops "trace" (shown r.T.r_trace)
    (shown (snd (T.read_crash whole)));
  match T.replay rcfg minimal with
  | Some (T.Audit_bug { f; _ }), _ ->
      Alcotest.(check (pair string string)) "same failure" ("UVM", "anon")
        (f.Check.system, Check.subsystem_name f.Check.subsys)
  | Some b, _ -> Alcotest.failf "repro fails otherwise: %s" (T.string_of_bug b)
  | None, _ -> Alcotest.fail "repro replays clean"

let () =
  Alcotest.run "audit"
    [
      ( "torture",
        [
          Alcotest.test_case "fixed seed clean" `Quick test_fixed_seed_clean;
          Alcotest.test_case "clean under I/O faults" `Quick
            test_fixed_seed_clean_under_faults;
          Alcotest.test_case "clean with tiers" `Quick
            test_fixed_seed_clean_tiered;
          Alcotest.test_case "trace reproducible" `Quick
            test_trace_reproducible;
          Alcotest.test_case "vslock + loan + failed write unwires" `Quick
            test_vslock_loan_unwire;
          Alcotest.test_case "vslock + mexp + write unwires" `Quick
            test_vslock_mexp_write;
          Alcotest.test_case "regress corpus replays clean" `Quick
            test_regress_corpus;
          QCheck_alcotest.to_alcotest codec_property;
          Alcotest.test_case "crash artifact reads back" `Quick
            test_crash_artifact;
        ] );
      ( "corruption oracle",
        [
          Alcotest.test_case "leaked swap slot -> swap audit" `Quick
            (corruption_case T.Leak_swap_slot Check.Swap);
          Alcotest.test_case "over-referenced anon -> anon audit" `Quick
            (corruption_case T.Overref_anon Check.Anon);
          (* The provenance ledger notices the second enqueue before the
             physmem queue-walk does: the page's recorded lifecycle state
             disagrees with the ring it sits on. *)
          Alcotest.test_case "queue double insert -> ledger audit" `Quick
            (corruption_case T.Queue_double_insert Check.Ledger);
          (* A phantom loan_count with no kernel loan or borrowing anon
             behind it is exactly what the loan census exists to catch. *)
          Alcotest.test_case "leaked loan -> loan audit" `Quick
            (corruption_case T.Leak_loan Check.Loan);
          (* A swapcache entry whose slot was freed underneath it: the
             cache claims media it no longer owns, and the cross-tier
             slot-ownership walk attributes it to the swap subsystem. *)
          Alcotest.test_case "leaked swapcache entry -> swap audit" `Quick
            (corruption_case ~tiers:true T.Leak_swapcache Check.Swap);
        ] );
    ]
