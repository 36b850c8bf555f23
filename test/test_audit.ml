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

(* Replay a shrunk trace, auditing after every op: no bug, and no op
   skipped as inapplicable. *)
let replay_clean ~seed ops =
  let bug, fed, _ = T.drive (cfg ~seed ~nops:0 ~audit_every:1) (T.Replay ops) in
  (match bug with
  | None -> ()
  | Some b -> Alcotest.failf "unexpected bug: %s" (T.string_of_bug b));
  Alcotest.(check int) "every op executed" (List.length ops) (List.length fed)

(* Shrunk from seed 53: a vslock'd anon range is loaned to a pipe, made
   inaccessible, written (the fault fails), and then unlocked.  The
   loaned, wired frames must keep every wiring the token holds, so the
   final vsunlock finds each page still wired on both kernels. *)
let test_vslock_loan_unwire () =
  let ops =
    [
      (1, T.Spawn { p = 0 });
      ( 6,
        T.Mmap
          {
            p = 0;
            r = 3;
            npages = 4;
            prot_ix = 3;
            shared = false;
            src_file = 0;
            fileoff = 0;
          } );
      (11, T.Pipe_open { k = 0 });
      (12, T.Vsl_grab { p = 0; r = 3; off = 1; len = 3 });
      ( 29,
        T.Pipe_write
          {
            k = 0;
            p = 0;
            r = 3;
            off = 8192;
            len = 8192;
            pol_ix = 1;
            vsl = false;
          }
      );
      (40, T.Mprotect { p = 0; r = 3; off = 1; len = 3; prot_ix = 0 });
      (43, T.Write { p = 0; r = 3; page = 3; byte = 112 });
      (70, T.Vsl_drop { p = 0 });
    ]
  in
  replay_clean ~seed:53 ops

(* Shrunk from seed 32: a vslock'd page is sent by map-entry passing and
   then written.  Mexp declines wired translations and copies instead,
   so the write fault leaves the vslock wiring on the sender's frame and
   closing the pipe frees an unwired kernel copy. *)
let test_vslock_mexp_write () =
  replay_clean ~seed:32
    [
      (0, T.Pipe_open { k = 1 });
      (5, T.Spawn { p = 4 });
      ( 6,
        T.Mmap
          {
            p = 4;
            r = 7;
            npages = 1;
            prot_ix = 0;
            shared = false;
            src_file = 0;
            fileoff = 0;
          } );
      (7, T.Vsl_grab { p = 4; r = 7; off = 0; len = 1 });
      ( 11,
        T.Pipe_write
          { k = 1; p = 4; r = 7; off = 0; len = 4096; pol_ix = 2; vsl = true }
      );
      (18, T.Write { p = 4; r = 7; page = 0; byte = 111 });
      (285, T.Pipe_close { k = 1 });
    ]

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

(* A failing run writes its crash file, and the file reads back: the
   same run as [uvm_sim torture --seed 42 --ops 600 --audit-every 10
   --corrupt overref-anon --corrupt-at 300 --shrink], whose repro shrinks
   to two ops.  Every op object holds its index, its name and exactly the
   operands [op_fields] lists. *)
let test_crash_artifact () =
  let dir = Filename.temp_dir "uvm-torture" "" in
  let r =
    T.run
      {
        (cfg ~seed:42 ~nops:600 ~audit_every:10) with
        T.corrupt = Some (300, T.Overref_anon);
        shrink = true;
        artifact_dir = Some dir;
      }
  in
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
  let field path = List.fold_left (fun v k -> Sim.Json.member k v) crash path in
  Alcotest.(check string) "schema" "uvm-sim-torture/1"
    (Sim.Json.to_str (field [ "schema" ]));
  Alcotest.(check string) "failure kind" "audit"
    (Sim.Json.to_str (field [ "failure"; "kind" ]));
  let check_ops what ops =
    let expected =
      List.map (fun (i, op) -> ("i", i) :: T.op_fields op) ops
    in
    let got =
      List.map
        (function
          | Sim.Json.Object (("i", i) :: ("op", String _) :: operands) ->
              List.map
                (fun (k, v) -> (k, int_of_float (Sim.Json.to_number v)))
                (("i", i) :: operands)
          | o -> Alcotest.failf "%s: malformed op %s" what (Sim.Json.to_string o))
        (Sim.Json.to_list (field [ what ]))
    in
    Alcotest.(check (list (list (pair string int)))) what expected got
  in
  check_ops "trace" r.T.r_trace;
  Alcotest.(check bool) "minimal repro recorded" true
    (Sim.Json.to_list (field [ "minimal" ]) <> []);
  check_ops "minimal" (Option.value r.T.r_minimal ~default:[])

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
