(* The lock observatory: registry semantics (recursion, read/write
   split, span attribution), the lockdep-style order auditor (ABBA must
   cycle, acquire_root must break the context), folded-profile
   telescoping, and the end-to-end experiment covering every lock class
   on both kernels. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A registry on a hand-cranked clock. *)
let make_reg () =
  let t = ref 0.0 in
  let reg = Sim.Lockstat.create ~enabled:true ~now:(fun () -> !t) () in
  (reg, t)

(* -- order auditing ----------------------------------------------------- *)

let test_abba_cycle () =
  let reg, _ = make_reg () in
  let a = Sim.Lockstat.register reg ~cls:"alpha" "a0" in
  let b = Sim.Lockstat.register reg ~cls:"beta" "b0" in
  (* alpha -> beta ... *)
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.acquire reg b ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.release reg b;
  Sim.Lockstat.release reg a;
  Alcotest.(check (list (list string))) "one nesting is acyclic" []
    (Sim.Lockstat.cycles reg);
  (* ... then beta -> alpha: the ABBA deadlock shape. *)
  Sim.Lockstat.acquire reg b ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.release reg a;
  Sim.Lockstat.release reg b;
  (match Sim.Lockstat.cycles reg with
  | [ cyc ] ->
      Alcotest.(check (list string))
        "cycle names both classes, smallest first" [ "alpha"; "beta" ] cyc
  | other ->
      Alcotest.failf "expected exactly one cycle, got %d" (List.length other));
  (* The Check.Lock audit class reports it as an invariant failure. *)
  match Check.check_lock_order ~system:"TEST" reg with
  | () -> Alcotest.fail "check_lock_order accepted an ABBA cycle"
  | exception Check.Audit_failure f ->
      Alcotest.(check string) "subsystem" "lock"
        (Check.subsystem_name f.Check.subsys);
      Alcotest.(check string) "invariant" "order_cycle" f.Check.invariant;
      Alcotest.(check bool) "detail names alpha" true
        (contains ~sub:"alpha" f.Check.detail);
      Alcotest.(check bool) "detail names beta" true
        (contains ~sub:"beta" f.Check.detail)

let test_empty_registry_audits_clean () =
  let reg, _ = make_reg () in
  Check.check_lock_order ~system:"TEST" reg;
  Alcotest.(check (list (list string))) "no cycles" []
    (Sim.Lockstat.cycles reg)

let test_acquire_root_breaks_context () =
  let reg, _ = make_reg () in
  let a = Sim.Lockstat.register reg ~cls:"alpha" "a0" in
  let r = Sim.Lockstat.register reg ~cls:"daemon" "d0" in
  let b = Sim.Lockstat.register reg ~cls:"beta" "b0" in
  (* alpha held; the daemon runs as a context break; beta under it. *)
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.acquire_root reg r ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.acquire reg b ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.release reg b;
  Sim.Lockstat.release reg r;
  Sim.Lockstat.release reg a;
  let edges =
    List.map (fun (h, a, _) -> (h, a)) (Sim.Lockstat.order_edges reg)
  in
  Alcotest.(check bool) "daemon -> beta drawn" true
    (List.mem ("daemon", "beta") edges);
  Alcotest.(check bool) "no alpha -> daemon edge" false
    (List.mem ("alpha", "daemon") edges);
  Alcotest.(check bool) "no alpha -> beta edge across the break" false
    (List.mem ("alpha", "beta") edges);
  (* The reverse nesting outside the break is therefore still legal. *)
  Sim.Lockstat.acquire reg b ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.release reg a;
  Sim.Lockstat.release reg b;
  Alcotest.(check (list (list string))) "still acyclic" []
    (Sim.Lockstat.cycles reg)

(* -- registry accounting ------------------------------------------------ *)

let test_recursion_records_once () =
  let reg, now = make_reg () in
  let a = Sim.Lockstat.register reg ~cls:"alpha" "a0" in
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  now := 5.0;
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  now := 7.0;
  Sim.Lockstat.release reg a;
  now := 10.0;
  Sim.Lockstat.release reg a;
  match Sim.Lockstat.views reg with
  | [ cv ] ->
      Alcotest.(check int) "one outermost acquire" 1
        cv.Sim.Lockstat.cv_acquires;
      Alcotest.(check (float 1e-9)) "hold spans the outermost pair" 10.0
        cv.Sim.Lockstat.cv_max_hold_us
  | other -> Alcotest.failf "expected one class view, got %d" (List.length other)

let test_mode_split_and_attribution () =
  let t = ref 0.0 in
  let reg = Sim.Lockstat.create ~enabled:true ~now:(fun () -> !t) () in
  let spans = Sim.Span.create ~enabled:true () in
  Sim.Lockstat.set_spans reg (Some spans);
  let a = Sim.Lockstat.register reg ~cls:"alpha" "a0" in
  (* One write hold attributed to "fault", one read hold to "pager". *)
  let s1 = Sim.Span.start spans ~subsys:"fault" ~ts:0.0 "fault" in
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  t := 4.0;
  Sim.Lockstat.release reg a;
  Sim.Span.finish spans s1 ~ts:5.0 ();
  let s2 = Sim.Span.start spans ~subsys:"pager" ~ts:5.0 "pagein" in
  t := 5.0;
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Read;
  t := 6.0;
  Sim.Lockstat.release reg a;
  Sim.Span.finish spans s2 ~ts:7.0 ();
  (match Sim.Lockstat.views reg with
  | [ cv ] ->
      Alcotest.(check int) "reads" 1 cv.Sim.Lockstat.cv_reads;
      Alcotest.(check int) "writes" 1 cv.Sim.Lockstat.cv_writes;
      Alcotest.(check int) "read histogram count" 1
        (Sim.Histogram.count cv.Sim.Lockstat.cv_read_hold);
      Alcotest.(check int) "write histogram count" 1
        (Sim.Histogram.count cv.Sim.Lockstat.cv_write_hold);
      let subsys (name : string) =
        match
          List.find_opt
            (fun (s, _, _) -> s = name)
            cv.Sim.Lockstat.cv_by_subsys
        with
        | Some (_, holds, total) -> (holds, total)
        | None -> Alcotest.failf "no %s attribution" name
      in
      let fh, ft = subsys "fault" in
      Alcotest.(check int) "one hold under fault" 1 fh;
      Alcotest.(check (float 1e-9)) "4us under fault" 4.0 ft;
      let ph, _ = subsys "pager" in
      Alcotest.(check int) "one hold under pager" 1 ph
  | other -> Alcotest.failf "expected one class view, got %d" (List.length other));
  (* The holds opened "lock:alpha" spans under the active span. *)
  let lock_spans =
    List.filter
      (fun s -> s.Sim.Span.sname = "lock:alpha")
      (Sim.Span.spans spans)
  in
  Alcotest.(check int) "two lock spans" 2 (List.length lock_spans);
  List.iter
    (fun s ->
      Alcotest.(check string) "lock span subsys is the class" "alpha"
        s.Sim.Span.ssubsys)
    lock_spans

let test_disabled_registry_is_inert () =
  let t = ref 0.0 in
  let reg = Sim.Lockstat.create ~now:(fun () -> !t) () in
  Alcotest.(check bool) "disabled by default" false (Sim.Lockstat.enabled reg);
  let a = Sim.Lockstat.register reg ~cls:"alpha" "a0" in
  Sim.Lockstat.acquire reg a ~mode:Sim.Lockstat.Write;
  Sim.Lockstat.release reg a;
  Alcotest.(check int) "nothing recorded" 0 (Sim.Lockstat.total_acquires reg)

(* An untraced machine's registry is inactive, so nothing registers an
   object's lock: not the fault path, and not the pageout of a dirty
   file page (UVM's object batch, BSD's per-page write) or, on BSD, of an
   anonymous object's page. *)
module Untraced_pageout (V : Vmiface.Vm_sig.VM_SYS) = struct
  module M = Vmiface.Machine
  module Vt = Vmiface.Vmtypes

  let run () =
    let config = { M.default_config with ram_pages = 128; swap_pages = 1024 } in
    let sys = V.boot ~config () in
    let m = V.machine sys in
    Alcotest.(check bool) "registry inactive" false
      (Sim.Lockstat.active m.M.locks);
    let vm = V.new_vmspace sys in
    let npages = 48 in
    let vn =
      Vfs.create_file m.M.vfs ~name:"dirty" ~size:(npages * M.page_size m)
    in
    let file =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Shared (Vt.File (vn, 0))
    in
    V.access_range sys vm ~vpn:file ~npages Vt.Write;
    let anon =
      V.mmap sys vm ~npages:256 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    V.access_range sys vm ~vpn:anon ~npages:256 Vt.Write;
    let stats = m.M.stats in
    Alcotest.(check bool) "pages written out" true
      (stats.Sim.Stats.pageouts > 0);
    Alcotest.(check bool) "file pages written back" true
      (stats.Sim.Stats.pageouts > stats.Sim.Stats.swap_zero_pageouts);
    Alcotest.(check (list string)) "no object lock registered" []
      (List.filter_map
         (fun v ->
           if v.Sim.Lockstat.cv_cls = "object" then
             Some (Printf.sprintf "%d instances" v.Sim.Lockstat.cv_instances)
           else None)
         (Sim.Lockstat.views m.M.locks));
    V.audit sys
end

module UP = Untraced_pageout (Uvm.Sys)
module BP = Untraced_pageout (Bsdvm.Sys)

(* -- folded profiles ---------------------------------------------------- *)

let test_fold_paths_telescopes () =
  let c = Sim.Span.create ~enabled:true () in
  let root = Sim.Span.start c ~subsys:"serve" ~ts:0.0 "request" in
  let f = Sim.Span.start c ~subsys:"fault" ~ts:2.0 "fault" in
  let io = Sim.Span.start c ~subsys:"pager" ~ts:3.0 "pagein" in
  Sim.Span.finish c io ~ts:7.0 ();
  Sim.Span.finish c f ~ts:8.0 ();
  Sim.Span.finish c root ~ts:10.0 ();
  let tree = Sim.Span.take_trace c ~trace:root.Sim.Span.strace in
  let folded = Sim.Span.fold_paths tree in
  let self path =
    match List.assoc_opt path folded with
    | Some v -> v
    | None -> Alcotest.failf "no folded line for %s" path
  in
  Alcotest.(check (float 1e-9)) "root self" 4.0 (self "request");
  Alcotest.(check (float 1e-9)) "mid self" 2.0 (self "request;fault");
  Alcotest.(check (float 1e-9)) "leaf self" 4.0 (self "request;fault;pagein");
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 folded in
  Alcotest.(check (float 1e-9)) "self times telescope to the root" 10.0 total

(* -- end to end --------------------------------------------------------- *)

let quick_cfg =
  {
    Experiments.Lockstat.ram_pages = 160;
    swap_pages = 1024;
    anon_pages = 224;
    file_pages = 24;
    requests = 8;
  }

let test_experiment_covers_both_kernels () =
  let r = Experiments.Lockstat.run ~cfg:quick_cfg () in
  (* Folded self times telescope to the measured wall (the lockstat CLI's
     1% acceptance bound; the construction makes it exact). *)
  Alcotest.(check bool) "wall measured" true (r.Experiments.Lockstat.lk_wall_us > 0.0);
  Alcotest.(check bool) "folded within 1% of wall" true
    (Float.abs (r.Experiments.Lockstat.lk_folded_us -. r.Experiments.Lockstat.lk_wall_us)
    <= 0.01 *. r.Experiments.Lockstat.lk_wall_us);
  Alcotest.(check int) "two systems traced" 2
    (List.length r.Experiments.Lockstat.lk_sources);
  List.iter
    (fun (src : Sim.Trace_export.source) ->
      let reg =
        match src.Sim.Trace_export.locks with
        | Some reg -> reg
        | None -> Alcotest.failf "%s has no lock registry" src.Sim.Trace_export.label
      in
      let held_classes =
        List.filter
          (fun cv -> cv.Sim.Lockstat.cv_acquires > 0)
          (Sim.Lockstat.views reg)
      in
      Alcotest.(check bool)
        (src.Sim.Trace_export.label ^ " exercises >= 6 lock classes")
        true
        (List.length held_classes >= 6);
      (* Every hold is attributed somewhere, and fault-path classes see
         the fault subsystem. *)
      List.iter
        (fun cv ->
          let attributed =
            List.fold_left (fun a (_, n, _) -> a + n) 0
              cv.Sim.Lockstat.cv_by_subsys
          in
          Alcotest.(check int)
            (src.Sim.Trace_export.label ^ " " ^ cv.Sim.Lockstat.cv_cls
           ^ " holds all attributed")
            cv.Sim.Lockstat.cv_acquires attributed)
        held_classes;
      let attributed_to cls sub =
        match
          List.find_opt
            (fun cv -> cv.Sim.Lockstat.cv_cls = cls)
            held_classes
        with
        | None -> false
        | Some cv ->
            List.exists (fun (s, _, _) -> s = sub) cv.Sim.Lockstat.cv_by_subsys
      in
      Alcotest.(check bool)
        (src.Sim.Trace_export.label ^ " map holds attributed to fault")
        true
        (attributed_to "map" "fault");
      Alcotest.(check bool)
        (src.Sim.Trace_export.label ^ " lock order acyclic")
        true
        (Sim.Lockstat.cycles reg = []))
    r.Experiments.Lockstat.lk_sources;
  (* UVM splits anonymous memory from objects; BSD has no amap class. *)
  let held label =
    let src =
      List.find
        (fun (s : Sim.Trace_export.source) -> s.Sim.Trace_export.label = label)
        r.Experiments.Lockstat.lk_sources
    in
    match src.Sim.Trace_export.locks with
    | Some reg ->
        List.filter_map
          (fun cv ->
            if cv.Sim.Lockstat.cv_acquires > 0 then
              Some cv.Sim.Lockstat.cv_cls
            else None)
          (Sim.Lockstat.views reg)
    | None -> []
  in
  Alcotest.(check bool) "UVM takes amap locks" true
    (List.mem "amap" (held "UVM"));
  Alcotest.(check bool) "BSD VM has no amap class" false
    (List.mem "amap" (held "BSD VM"))

let test_torture_is_cycle_free () =
  (* A seeded differential run with tracing on: both kernels' audits
     include check_lock_order, so a clean run is the lockdep gate. *)
  Vmiface.Machine.set_default_trace (Some 4096);
  let cfg =
    {
      Oslayer.Torture.default_cfg with
      Oslayer.Torture.seed = 7;
      nops = 1500;
      audit_every = 50;
      ram_pages = 96;
      swap_pages = 1024;
    }
  in
  let r = Oslayer.Torture.run cfg in
  Vmiface.Machine.set_default_trace None;
  Vmiface.Machine.reset_traced ();
  (match r.Oslayer.Torture.r_bug with
  | None -> ()
  | Some b ->
      Alcotest.failf "traced torture run failed: %s"
        (Oslayer.Torture.string_of_bug b))

let () =
  Alcotest.run "lockstat"
    [
      ( "order",
        [
          Alcotest.test_case "abba cycle detected and named" `Quick
            test_abba_cycle;
          Alcotest.test_case "empty registry audits clean" `Quick
            test_empty_registry_audits_clean;
          Alcotest.test_case "acquire_root breaks the context" `Quick
            test_acquire_root_breaks_context;
        ] );
      ( "registry",
        [
          Alcotest.test_case "recursion records once" `Quick
            test_recursion_records_once;
          Alcotest.test_case "mode split and span attribution" `Quick
            test_mode_split_and_attribution;
          Alcotest.test_case "disabled registry is inert" `Quick
            test_disabled_registry_is_inert;
          Alcotest.test_case "UVM: untraced pageout registers no object lock"
            `Quick UP.run;
          Alcotest.test_case
            "BSD VM: untraced pageout registers no object lock" `Quick BP.run;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "fold_paths telescopes" `Quick
            test_fold_paths_telescopes;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "experiment covers both kernels" `Quick
            test_experiment_covers_both_kernels;
          Alcotest.test_case "traced torture run is cycle-free" `Quick
            test_torture_is_cycle_free;
        ] );
    ]
