(* Causal spans: collector semantics, the critical-path analyzer, and
   live propagation — a fault on either kernel must yield one trace tree
   linking the fault to the map lock, the pager I/O and the swap-tier
   operations it caused. *)

module Vmtypes = Vmiface.Vmtypes

(* -- collector unit tests ----------------------------------------------- *)

let test_nesting_and_trace_ids () =
  let c = Sim.Span.create ~enabled:true () in
  let a = Sim.Span.start c ~subsys:"fault" ~ts:0.0 "fault" in
  let b = Sim.Span.start c ~subsys:"map" ~ts:1.0 "lock:map" in
  let d = Sim.Span.start c ~subsys:"pager" ~ts:2.0 "pagein" in
  Sim.Span.finish c d ~ts:5.0 ();
  let e = Sim.Span.start c ~subsys:"pager" ~ts:6.0 "pagein" in
  Sim.Span.finish c e ~ts:7.0 ();
  Sim.Span.finish c b ~ts:8.0 ();
  Sim.Span.finish c a ~ts:10.0 ();
  Alcotest.(check int) "root has parent 0" 0 a.Sim.Span.sparent;
  Alcotest.(check int) "lock is child of fault" a.Sim.Span.sid
    b.Sim.Span.sparent;
  Alcotest.(check int) "pagein is child of lock" b.Sim.Span.sid
    d.Sim.Span.sparent;
  Alcotest.(check int) "sibling shares the parent" b.Sim.Span.sid
    e.Sim.Span.sparent;
  List.iter
    (fun s ->
      Alcotest.(check int) "one request, one trace id" a.Sim.Span.strace
        s.Sim.Span.strace)
    [ b; d; e ];
  Alcotest.(check (float 1e-9)) "durations close on finish" 10.0
    a.Sim.Span.sdur;
  let g = Sim.Span.start c ~subsys:"fault" ~ts:20.0 "fault" in
  Alcotest.(check bool)
    "empty stack mints a fresh trace" true
    (g.Sim.Span.strace <> a.Sim.Span.strace);
  Sim.Span.finish c g ~ts:21.0 ();
  Alcotest.(check int) "all finished" 5 (Sim.Span.recorded c);
  Alcotest.(check int) "nothing left open" 0
    (List.length (Sim.Span.open_spans c));
  Alcotest.(check (list int))
    "take_trace isolates one tree"
    [ d.Sim.Span.sid; e.Sim.Span.sid; b.Sim.Span.sid; a.Sim.Span.sid ]
    (List.map
       (fun s -> s.Sim.Span.sid)
       (Sim.Span.take_trace c ~trace:a.Sim.Span.strace))

let test_disabled_collector_is_inert () =
  let c = Sim.Span.create () in
  Alcotest.(check bool) "disabled by default" false (Sim.Span.enabled c);
  let s = Sim.Span.start c ~subsys:"fault" ~ts:1.0 "fault" in
  Alcotest.(check int) "dummy span id 0" 0 s.Sim.Span.sid;
  Sim.Span.finish c s ~ts:2.0 ();
  Alcotest.(check int) "nothing recorded" 0 (Sim.Span.recorded c);
  Sim.Span.set_enabled c true;
  let s = Sim.Span.start c ~subsys:"fault" ~ts:3.0 "fault" in
  Alcotest.(check bool) "real span once enabled" true (s.Sim.Span.sid > 0);
  Sim.Span.finish c s ~ts:4.0 ();
  Alcotest.(check int) "recorded once enabled" 1 (Sim.Span.recorded c)

let test_lifo_recovery () =
  (* An exception that skips inner finishes must not corrupt the stack:
     finishing an outer span closes the leaked inner spans at the same
     timestamp. *)
  let c = Sim.Span.create ~enabled:true () in
  let a = Sim.Span.start c ~subsys:"torture" ~ts:0.0 "op" in
  let b = Sim.Span.start c ~subsys:"fault" ~ts:1.0 "fault" in
  let d = Sim.Span.start c ~subsys:"map" ~ts:2.0 "lock:map" in
  Sim.Span.finish c a ~ts:9.0 ();
  Alcotest.(check int) "everything closed" 3 (Sim.Span.recorded c);
  Alcotest.(check int) "stack empty after recovery" 0
    (List.length (Sim.Span.open_spans c));
  Alcotest.(check (float 1e-9)) "leaked inner closed at outer ts" 8.0
    b.Sim.Span.sdur;
  Alcotest.(check (float 1e-9)) "leaked innermost too" 7.0 d.Sim.Span.sdur;
  (* Double finish is a no-op. *)
  Sim.Span.finish c b ~ts:50.0 ();
  Alcotest.(check int) "double finish ignored" 3 (Sim.Span.recorded c);
  Alcotest.(check (float 1e-9)) "duration unchanged" 8.0 b.Sim.Span.sdur

let test_ring_wraparound () =
  let c = Sim.Span.create ~capacity:4 ~enabled:true () in
  for i = 1 to 10 do
    let s = Sim.Span.start c ~subsys:"fault" ~ts:(float_of_int i) "fault" in
    Sim.Span.finish c s ~ts:(float_of_int i +. 0.5) ()
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Sim.Span.recorded c);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Sim.Span.dropped c);
  Alcotest.(check (list (float 1e-9)))
    "ring keeps the newest, oldest first" [ 7.0; 8.0; 9.0; 10.0 ]
    (List.map (fun s -> s.Sim.Span.sts) (Sim.Span.spans c))

let test_self_times () =
  let c = Sim.Span.create ~enabled:true () in
  let a = Sim.Span.start c ~subsys:"fault" ~ts:0.0 "fault" in
  let b = Sim.Span.start c ~subsys:"map" ~ts:1.0 "lock:map" in
  let d = Sim.Span.start c ~subsys:"pager" ~ts:2.0 "pagein" in
  Sim.Span.finish c d ~ts:5.0 ();
  let e = Sim.Span.start c ~subsys:"pager" ~ts:6.0 "pagein" in
  Sim.Span.finish c e ~ts:7.0 ();
  Sim.Span.finish c b ~ts:8.0 ();
  Sim.Span.finish c a ~ts:10.0 ();
  let tree = Sim.Span.take_trace c ~trace:a.Sim.Span.strace in
  let self = Sim.Span.self_times tree in
  (* fault: 10 total - 7 in lock:map; map: 7 - 4 in pageins; pager: 3+1 *)
  Alcotest.(check (float 1e-9)) "fault self" 3.0 (List.assoc "fault" self);
  Alcotest.(check (float 1e-9)) "map self" 3.0 (List.assoc "map" self);
  Alcotest.(check (float 1e-9)) "pager self" 4.0 (List.assoc "pager" self);
  Alcotest.(check (float 1e-9))
    "decomposition telescopes to the root duration" a.Sim.Span.sdur
    (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 self)

(* -- live propagation through both kernels ------------------------------ *)

(* Overcommit anonymous memory so the read-back pass faults pages in from
   swap: every trace must link fault -> map lock -> pager -> swap tier. *)
module Load (V : Vmiface.Vm_sig.VM_SYS) = struct
  let spans () =
    Vmiface.Machine.reset_traced ();
    let config =
      {
        Vmiface.Machine.default_config with
        ram_pages = 64;
        swap_pages = 1024;
        trace_buf = Some 16384;
      }
    in
    let sys = V.boot ~config () in
    let vm = V.new_vmspace sys in
    let vpn =
      V.mmap sys vm ~npages:128 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    V.access_range sys vm ~vpn ~npages:128 Vmtypes.Write;
    V.access_range sys vm ~vpn ~npages:128 Vmtypes.Read;
    Vmiface.Machine.reset_traced ();
    (V.machine sys).Vmiface.Machine.spans
end

module Uvm_load = Load (Uvm.Sys)
module Bsd_load = Load (Bsdvm.Sys)

let check_live_tree label spans =
  Alcotest.(check int) (label ^ ": nothing dropped") 0 (Sim.Span.dropped spans);
  Alcotest.(check int) (label ^ ": nothing left open") 0
    (List.length (Sim.Span.open_spans spans));
  let all = Sim.Span.spans spans in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Sim.Span.span) -> Hashtbl.replace by_id s.Sim.Span.sid s) all;
  (* Tree well-formedness: every non-root's parent exists, shares the
     trace, and contains the child's interval. *)
  List.iter
    (fun (s : Sim.Span.span) ->
      if s.Sim.Span.sparent <> 0 then begin
        match Hashtbl.find_opt by_id s.Sim.Span.sparent with
        | None -> Alcotest.failf "%s: span %d has unknown parent" label s.sid
        | Some p ->
            Alcotest.(check int)
              (label ^ ": child inherits trace")
              p.Sim.Span.strace s.Sim.Span.strace;
            Alcotest.(check bool)
              (label ^ ": parent starts first") true
              (p.Sim.Span.sts <= s.Sim.Span.sts);
            Alcotest.(check bool)
              (label ^ ": parent ends last") true
              (p.Sim.Span.sts +. p.Sim.Span.sdur
              >= s.Sim.Span.sts +. s.Sim.Span.sdur -. 1e-9)
      end)
    all;
  let rec root (s : Sim.Span.span) =
    match Hashtbl.find_opt by_id s.Sim.Span.sparent with
    | Some p -> root p
    | None -> s
  in
  (* The causal chain the tentpole promises: a swap-device read caused
     by a pager caused by a fault. *)
  let tiered =
    List.filter
      (fun (s : Sim.Span.span) ->
        String.length s.Sim.Span.ssubsys >= 5
        && String.sub s.Sim.Span.ssubsys 0 5 = "swap:")
      all
  in
  Alcotest.(check bool) (label ^ ": swap-tier spans present") true (tiered <> []);
  List.iter
    (fun (s : Sim.Span.span) ->
      let r = root s in
      Alcotest.(check string)
        (label ^ ": tier I/O roots at a fault")
        "fault" r.Sim.Span.ssubsys)
    tiered;
  let pageins =
    List.filter (fun (s : Sim.Span.span) -> s.Sim.Span.sname = "pagein") all
  in
  Alcotest.(check bool) (label ^ ": pagein spans present") true (pageins <> []);
  List.iter
    (fun (s : Sim.Span.span) ->
      Alcotest.(check bool) (label ^ ": pageins are never roots") true
        (s.Sim.Span.sparent <> 0))
    pageins;
  (* Critical path: each complete trace's decomposition telescopes to
     its root's duration. *)
  List.iter
    (fun (s : Sim.Span.span) ->
      if s.Sim.Span.sparent = 0 then begin
        let tree = Sim.Span.take_trace spans ~trace:s.Sim.Span.strace in
        let total =
          List.fold_left
            (fun acc (_, v) -> acc +. v)
            0.0
            (Sim.Span.self_times tree)
        in
        if Float.abs (total -. s.Sim.Span.sdur) > 1e-6 then
          Alcotest.failf "%s: trace %d self times sum %.9f <> root dur %.9f"
            label s.Sim.Span.strace total s.Sim.Span.sdur
      end)
    all

let test_uvm_fault_tree () = check_live_tree "UVM" (Uvm_load.spans ())
let test_bsd_fault_tree () = check_live_tree "BSD VM" (Bsd_load.spans ())

(* Both error exits of the shared fault routine close exactly one fault
   span, record the error as its result and leave the map unlocked. *)
module Exits (V : sig
  include Vmiface.Vm_sig.VM_SYS

  val map_locked : vmspace -> bool
end) =
struct
  let check () =
    Vmiface.Machine.reset_traced ();
    let config =
      {
        Vmiface.Machine.default_config with
        ram_pages = 64;
        swap_pages = 256;
        trace_buf = Some 1024;
      }
    in
    let sys = V.boot ~config () in
    let vm = V.new_vmspace sys in
    let vpn =
      V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    let spans = (V.machine sys).Vmiface.Machine.spans in
    let faults () =
      List.filter
        (fun (s : Sim.Span.span) -> s.Sim.Span.sname = "fault")
        (Sim.Span.spans spans)
    in
    let exit_with label ~vpn access want =
      let want = Vmtypes.string_of_fault_error want in
      let before = List.length (faults ()) in
      (match V.touch sys vm ~vpn access with
      | () -> Alcotest.failf "%s: the fault resolved" label
      | exception Vmtypes.Segv { error; _ } ->
          Alcotest.(check string)
            (label ^ ": typed error")
            want
            (Vmtypes.string_of_fault_error error));
      let after = faults () in
      Alcotest.(check int)
        (label ^ ": one fault span closed")
        (before + 1) (List.length after);
      let s = List.nth after before in
      Alcotest.(check (option string))
        (label ^ ": span result")
        (Some want)
        (List.assoc_opt "result" s.Sim.Span.sdetail);
      Alcotest.(check int)
        (label ^ ": nothing left open")
        0
        (List.length (Sim.Span.open_spans spans));
      Alcotest.(check bool) (label ^ ": map unlocked") false (V.map_locked vm)
    in
    exit_with "no entry" ~vpn:(vpn + 64) Vmtypes.Read Vmtypes.No_entry;
    exit_with "prot denied" ~vpn Vmtypes.Write Vmtypes.Prot_denied;
    Vmiface.Machine.reset_traced ()
end

module Uvm_exits = Exits (struct
  include Uvm.Sys

  let map_locked vm = Uvm.Map.is_locked vm.map
end)

module Bsd_exits = Exits (struct
  include Bsdvm.Sys

  let map_locked vm = Bsdvm.Map.is_locked vm.map
end)

(* Device death: the drain's migrations must be attributed to the
   pagedaemon scan that performed them. *)
let test_drain_attribution () =
  Vmiface.Machine.reset_traced ();
  let config =
    Vmiface.Machine.tiered ~fast_pages:64 ~slow_pages:256
      {
        Vmiface.Machine.default_config with
        ram_pages = 32;
        trace_buf = Some 16384;
      }
  in
  let sys = Uvm.Sys.boot ~config () in
  let mach = Uvm.Sys.machine sys in
  let vm = Uvm.Sys.new_vmspace sys in
  let vpn =
    Uvm.Sys.mmap sys vm ~npages:48 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
      Vmtypes.Zero
  in
  for i = 0 to 47 do
    Uvm.Sys.write_bytes sys vm ~addr:((vpn + i) * 4096) (Bytes.make 1 'x')
  done;
  Swap.Swaptier.kill_device mach.Vmiface.Machine.swap ~name:"fast";
  for i = 0 to 47 do
    ignore (Uvm.Sys.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:1)
  done;
  Vmiface.Machine.reset_traced ();
  let spans = mach.Vmiface.Machine.spans in
  let all = Sim.Span.spans spans in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Sim.Span.span) -> Hashtbl.replace by_id s.Sim.Span.sid s) all;
  let migrations =
    List.filter (fun (s : Sim.Span.span) -> s.Sim.Span.sname = "migrate") all
  in
  Alcotest.(check bool) "migration spans present" true (migrations <> []);
  (* The lock observatory interposes lock:<class> spans; attribution
     walks through them to the enclosing work span. *)
  let is_lock (s : Sim.Span.span) =
    String.length s.Sim.Span.sname >= 5
    && String.sub s.Sim.Span.sname 0 5 = "lock:"
  in
  let rec work_parent (s : Sim.Span.span) =
    match Hashtbl.find_opt by_id s.Sim.Span.sparent with
    | Some p when is_lock p -> work_parent p
    | other -> other
  in
  List.iter
    (fun (s : Sim.Span.span) ->
      match work_parent s with
      | Some d -> (
          Alcotest.(check string) "migrate under the drain" "drain"
            d.Sim.Span.sname;
          match work_parent d with
          | Some scan ->
              Alcotest.(check string) "drain under the pagedaemon scan"
                "pdaemon" scan.Sim.Span.ssubsys
          | None -> Alcotest.fail "drain span has no parent")
      | None -> Alcotest.fail "migrate span has no parent")
    migrations

let () =
  Alcotest.run "span"
    [
      ( "collector",
        [
          Alcotest.test_case "nesting and trace ids" `Quick
            test_nesting_and_trace_ids;
          Alcotest.test_case "disabled is inert" `Quick
            test_disabled_collector_is_inert;
          Alcotest.test_case "LIFO recovery on leaked spans" `Quick
            test_lifo_recovery;
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "critical-path self times" `Quick test_self_times;
        ] );
      ( "live",
        [
          Alcotest.test_case "UVM fault tree" `Quick test_uvm_fault_tree;
          Alcotest.test_case "BSD VM fault tree" `Quick test_bsd_fault_tree;
          Alcotest.test_case "UVM fault error exits" `Quick Uvm_exits.check;
          Alcotest.test_case "BSD VM fault error exits" `Quick Bsd_exits.check;
          Alcotest.test_case "drain attribution" `Quick test_drain_attribution;
        ] );
    ]
