(* The observability layer: latency histograms, the span-derived latency
   series, the JSON codec, and the exporters over the single span stream,
   each round-tripped through the codec's parser. *)

module Vmtypes = Vmiface.Vmtypes

(* -- histograms --------------------------------------------------------- *)

(* Log buckets at four per octave bound any percentile's relative error
   by lambda - 1 ~ 19%. *)
let within_bucket_error expected actual =
  Float.abs (actual -. expected) <= 0.19 *. expected

let test_histogram_percentiles () =
  let h = Sim.Histogram.create () in
  for v = 1 to 1000 do
    Sim.Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 1000 (Sim.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum" 500500.0 (Sim.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "mean" 500.5 (Sim.Histogram.mean h);
  Alcotest.(check (float 1e-6)) "exact min" 1.0 (Sim.Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "exact max" 1000.0 (Sim.Histogram.max_value h);
  List.iter
    (fun (p, expected) ->
      let got = Sim.Histogram.percentile h p in
      if not (within_bucket_error expected got) then
        Alcotest.failf "p%.0f of uniform 1..1000: got %.1f, want %.1f +-19%%" p
          got expected)
    [ (50.0, 500.0); (95.0, 950.0); (99.0, 990.0) ];
  let p100 = Sim.Histogram.percentile h 100.0 in
  Alcotest.(check bool)
    "p100 within a bucket of max, never above" true
    (p100 <= 1000.0 && within_bucket_error 1000.0 p100);
  let p0 = Sim.Histogram.percentile h 0.0 in
  Alcotest.(check bool)
    "p0 within a bucket of min, never below" true
    (p0 >= 1.0 && within_bucket_error 1.0 p0);
  (* Monotone in p. *)
  Alcotest.(check bool)
    "percentiles monotone" true
    (Sim.Histogram.p50 h <= Sim.Histogram.p95 h
    && Sim.Histogram.p95 h <= Sim.Histogram.p99 h
    && Sim.Histogram.p99 h <= p100)

let test_histogram_edge_cases () =
  let h = Sim.Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p50 is 0" 0.0 (Sim.Histogram.p50 h);
  Alcotest.(check (float 0.0)) "empty mean is 0" 0.0 (Sim.Histogram.mean h);
  Sim.Histogram.observe h (-5.0);
  Sim.Histogram.observe h Float.nan;
  Sim.Histogram.observe h Float.infinity;
  Alcotest.(check int) "bad samples ignored" 0 (Sim.Histogram.count h);
  Sim.Histogram.observe h 42.0;
  Alcotest.(check int) "count after one sample" 1 (Sim.Histogram.count h);
  Alcotest.(check (float 1e-6))
    "single sample: p50 = the sample" 42.0 (Sim.Histogram.p50 h);
  (* Sub-microsecond samples land in the [0,1) bucket. *)
  let h0 = Sim.Histogram.create () in
  Sim.Histogram.observe h0 0.25;
  Alcotest.(check (float 1e-6)) "tiny sample p50" 0.25 (Sim.Histogram.p50 h0)

let test_histogram_merge () =
  let a = Sim.Histogram.create () and b = Sim.Histogram.create () in
  for v = 1 to 500 do
    Sim.Histogram.observe a (float_of_int v)
  done;
  for v = 501 to 1000 do
    Sim.Histogram.observe b (float_of_int v)
  done;
  Sim.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 1000 (Sim.Histogram.count a);
  Alcotest.(check (float 1e-6)) "merged sum" 500500.0 (Sim.Histogram.sum a);
  Alcotest.(check (float 1e-6)) "merged min" 1.0 (Sim.Histogram.min_value a);
  Alcotest.(check (float 1e-6)) "merged max" 1000.0 (Sim.Histogram.max_value a);
  let got = Sim.Histogram.p50 a in
  if not (within_bucket_error 500.0 got) then
    Alcotest.failf "merged p50: got %.1f, want 500 +-19%%" got

(* -- the JSON codec ------------------------------------------------------ *)

module J = Sim.Json

(* Strings are built from pieces that exercise every escape: the quote,
   the backslash, named and numbered control bytes, and raw UTF-8. *)
let json_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\000"; "\031"; "\127"; "/" ];
        map (String.make 1) printable;
        oneofl [ "\xc3\xa9"; "\xc2\xb5s"; "\xe2\x86\x92"; "\xf0\x9f\x98\x80" ];
      ]
  in
  let str = map (String.concat "") (list_size (int_bound 6) piece) in
  (* A float already equal to its printed rounding. *)
  let rounded =
    map2
      (fun v d -> J.Float (float_of_string (Printf.sprintf "%.*f" d v), d))
      (float_range (-1e6) 1e6) (int_range 1 6)
  in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun n -> J.Int n) int;
        rounded;
        map (fun s -> J.String s) str;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 2,
                 map
                   (fun l -> J.Object l)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ]))

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:J.to_string json_gen)
    (fun v -> J.parse (J.to_string v) = v)

(* The printer's fixed formats, and a document another writer spaced out. *)
let test_json_formats () =
  Alcotest.(check string)
    "number formats" "[1,true,0.125,2.5000,3.1,0,null]"
    (J.to_string
       (J.List
          [
            J.Int 1;
            J.Bool true;
            J.float 0.125;
            J.float ~decimals:4 2.5;
            J.float ~decimals:1 3.14;
            J.float Float.nan;
            J.Null;
          ]));
  Alcotest.(check string)
    "escapes" "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\xc3\xa9\""
    (J.to_string (J.String "a\"b\\c\n\t\r\001\031\xc3\xa9"));
  Alcotest.(check bool)
    "whitespace, exponents and \\u escapes" true
    (J.parse " { \"a\" : [ 1 , -2.50e1 ] ,\n \"b\":\"\\u00e9\\/\" } "
    = J.Object
        [ ("a", J.List [ J.Int 1; J.Float (-25.0, 2) ]); ("b", J.String "\xc3\xa9/") ]);
  List.iter
    (fun bad ->
      match J.parse bad with
      | _ -> Alcotest.failf "parsed malformed %S" bad
      | exception Failure _ -> ())
    [ ""; "[1,]"; "{\"a\" 1}"; "[1] x"; "\"open"; "tru"; "-" ]

(* An exporter's artifact, as printed and parsed back. *)
let export a srcs = J.parse (J.to_string (Sim.Trace_export.export a srcs))

(* -- exporters against live VM systems ---------------------------------- *)

(* Map a file and read it end to end: every page costs a fault and a
   vnode pagein, exercising the traced path in both systems. *)
module Workload (V : Vmiface.Vm_sig.VM_SYS) = struct
  let traced_source () =
    let config = { Vmiface.Machine.default_config with trace_buf = Some 1024 } in
    let sys = V.boot ~config () in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/data" ~size:(16 * 4096) in
    let vm = V.new_vmspace sys in
    let vpn =
      V.mmap sys vm ~npages:16 ~prot:Pmap.Prot.read ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    for i = 0 to 15 do
      V.touch sys vm ~vpn:(vpn + i) Vmtypes.Read
    done;
    (V.machine sys).Vmiface.Machine.trace_source
end

module Uvm_load = Workload (Uvm.Sys)
module Bsd_load = Workload (Bsdvm.Sys)

let run_both () =
  let srcs = [ Uvm_load.traced_source (); Bsd_load.traced_source () ] in
  (* The boots above registered themselves for the CLI exporters; this
     test holds its sources directly, so drop the registrations. *)
  Vmiface.Machine.reset_traced ();
  srcs

let test_live_tracing () =
  List.iter
    (fun (src : Sim.Trace_export.source) ->
      let spans = Sim.Span.spans src.spans in
      let names = List.map (fun (sp : Sim.Span.span) -> sp.sname) spans in
      Alcotest.(check bool)
        (src.label ^ " records faults")
        true
        (List.mem "fault" names);
      Alcotest.(check bool)
        (src.label ^ " records pageins")
        true
        (List.mem "pagein" names);
      (* Spans finish in order: each ends no earlier than it started. *)
      Alcotest.(check bool)
        (src.label ^ " spans well-formed")
        true
        (List.for_all (fun (sp : Sim.Span.span) -> sp.sdur >= 0.0) spans);
      (* Latency histograms are a view over the same stream. *)
      match List.assoc_opt "fault" (Sim.Span.latencies src.spans) with
      | Some h ->
          Alcotest.(check bool)
            (src.label ^ " observed fault latencies")
            true
            (Sim.Histogram.count h > 0)
      | None -> Alcotest.failf "%s: no fault latency series" src.label)
    (run_both ())

(* One instrumentation path: on a traced boot every fault makes exactly
   one span, and the fault-latency histogram is fed by those spans alone —
   so histogram count, counter delta and span count all agree. *)
module Fault_count (V : Vmiface.Vm_sig.VM_SYS) = struct
  let check () =
    let config =
      { Vmiface.Machine.default_config with trace_buf = Some 4096 }
    in
    let sys = V.boot ~config () in
    Vmiface.Machine.reset_traced ();
    let m = V.machine sys in
    let spans = m.Vmiface.Machine.spans in
    let faults0 = m.Vmiface.Machine.stats.Sim.Stats.faults in
    let hist_count () =
      match List.assoc_opt "fault" (Sim.Span.latencies spans) with
      | Some h -> Sim.Histogram.count h
      | None -> 0
    in
    let count0 = hist_count () in
    Sim.Span.clear spans;
    let vfs = m.Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/count" ~size:(8 * 4096) in
    let vm = V.new_vmspace sys in
    let fvpn =
      V.mmap sys vm ~npages:8 ~prot:Pmap.Prot.read ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    let avpn =
      V.mmap sys vm ~npages:8 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    for i = 0 to 7 do
      V.touch sys vm ~vpn:(fvpn + i) Vmtypes.Read;
      V.touch sys vm ~vpn:(avpn + i) Vmtypes.Write
    done;
    let child = V.fork sys vm in
    for i = 0 to 7 do
      V.touch sys child ~vpn:(avpn + i) Vmtypes.Write
    done;
    let faults = m.Vmiface.Machine.stats.Sim.Stats.faults - faults0 in
    let fault_spans =
      List.length
        (List.filter
           (fun (sp : Sim.Span.span) -> sp.sname = "fault")
           (Sim.Span.spans spans))
    in
    Alcotest.(check bool) (V.name ^ " took faults") true (faults > 0);
    Alcotest.(check int)
      (V.name ^ " no spans dropped")
      0 (Sim.Span.dropped spans);
    Alcotest.(check int)
      (V.name ^ " histogram count = faults delta")
      faults
      (hist_count () - count0);
    Alcotest.(check int)
      (V.name ^ " fault spans = faults delta")
      faults fault_spans
end

module Uvm_count = Fault_count (Uvm.Sys)
module Bsd_count = Fault_count (Bsdvm.Sys)

let test_chrome_export () =
  let srcs = run_both () in
  let root = export Trace srcs in
  let events = J.to_list (J.member "traceEvents" root) in
  Alcotest.(check bool) "trace has events" true (List.length events > 0);
  (* process_name metadata maps pid -> system label. *)
  let pid_label =
    List.filter_map
      (fun e ->
        if
          J.member "ph" e = J.String "M"
          && J.member "name" e = J.String "process_name"
        then
          Some
            ( int_of_float (J.to_number (J.member "pid" e)),
              J.to_str (J.member "name" (J.member "args" e)) )
        else None)
      events
  in
  Alcotest.(check bool)
    "UVM process present" true
    (List.exists (fun (_, l) -> l = "UVM") pid_label);
  Alcotest.(check bool)
    "BSD VM process present" true
    (List.exists (fun (_, l) -> l = "BSD VM") pid_label);
  (* Both systems must contribute fault and pagein events. *)
  let events_for label name =
    List.exists
      (fun e ->
        J.member "name" e = J.String name
        && List.assoc_opt (int_of_float (J.to_number (J.member "pid" e))) pid_label
           = Some label)
      events
  in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " fault events") true
        (events_for label "fault");
      Alcotest.(check bool)
        (label ^ " pagein events")
        true
        (events_for label "pagein"))
    [ "UVM"; "BSD VM" ];
  (* Spans are well-formed complete events; flow arrows carry ids. *)
  List.iter
    (fun e ->
      match J.member "ph" e with
      | J.String "X" ->
          Alcotest.(check bool) "span has dur >= 0" true
            (J.to_number (J.member "dur" e) >= 0.0);
          Alcotest.(check bool) "span has ts >= 0" true
            (J.to_number (J.member "ts" e) >= 0.0)
      | J.String ("s" | "f") ->
          Alcotest.(check bool) "flow event has an id" true
            (J.member "id" e <> J.Null)
      | J.String "M" -> ()
      | _ -> Alcotest.fail "unexpected event phase")
    events

(* Causal spans are the Chrome export, one track per subsystem with
   parent->child flow arrows: every flow id must pair one "s" with one
   "f", and land on a span track (tid >= 1, cat "span"). *)
let test_flow_event_round_trip () =
  let srcs = run_both () in
  let root = export Trace srcs in
  let events = J.to_list (J.member "traceEvents" root) in
  let span_events =
    List.filter (fun e -> J.member "cat" e = J.String "span") events
  in
  Alcotest.(check bool) "span tracks exported" true
    (List.exists (fun e -> J.member "ph" e = J.String "X") span_events);
  List.iter
    (fun e ->
      Alcotest.(check bool) "span events live on tids >= 1" true
        (J.to_number (J.member "tid" e) >= 1.0))
    span_events;
  let flows ph =
    List.filter_map
      (fun e ->
        if J.member "ph" e = J.String ph && J.member "cat" e = J.String "span" then
          Some
            ( int_of_float (J.to_number (J.member "pid" e)),
              int_of_float (J.to_number (J.member "id" e)) )
        else None)
      events
  in
  let starts = flows "s" and finishes = flows "f" in
  Alcotest.(check bool) "parented spans produce flows" true (starts <> []);
  Alcotest.(check int) "every flow start has a finish" (List.length starts)
    (List.length finishes);
  List.iter
    (fun id ->
      Alcotest.(check bool) "flow pairs share the id" true
        (List.mem id finishes))
    starts;
  (* Binding-point "e" is what makes Perfetto attach the arrow to the
     enclosing slice rather than the next one. *)
  List.iter
    (fun e ->
      if J.member "ph" e = J.String "f" then
        Alcotest.(check string) "finish binds enclosing" "e"
          (J.to_str (J.member "bp" e)))
    events

(* -- the periodic sampler ----------------------------------------------- *)

let test_sampler_monotonic_and_rates () =
  let clock = Sim.Simclock.create () in
  let t = Sim.Timeseries.create ~interval:10.0 () in
  let v = ref 0.0 in
  Sim.Timeseries.set_probe t ~columns:[ "v" ] (fun () -> [| !v |]);
  Sim.Timeseries.attach t clock;
  (* The counter climbs 1 per simulated microsecond while the clock
     advances in ragged steps — so every derived rate must be 1e6/s. *)
  for _ = 1 to 40 do
    v := !v +. 3.7;
    Sim.Simclock.advance clock 3.7
  done;
  let ss = Array.of_list (Sim.Timeseries.samples t) in
  Alcotest.(check bool) "clock advances produced samples" true
    (Array.length ss >= 5);
  let col =
    match Sim.Timeseries.col_index t "v" with
    | Some i -> i
    | None -> Alcotest.fail "missing column"
  in
  for i = 1 to Array.length ss - 1 do
    Alcotest.(check bool) "timestamps strictly increase" true
      (ss.(i).Sim.Timeseries.s_ts > ss.(i - 1).Sim.Timeseries.s_ts);
    Alcotest.(check (float 1e-3))
      "rate = dvalue / dt" 1_000_000.0
      (Sim.Timeseries.rate ~col ss.(i - 1) ss.(i))
  done;
  Alcotest.(check (float 1e-9))
    "degenerate rate is 0" 0.0
    (Sim.Timeseries.rate ~col ss.(0) ss.(0));
  Alcotest.(check int) "recorded matches retained here" (Array.length ss)
    (Sim.Timeseries.recorded t)

let test_watchdog_fires_once_per_episode () =
  let clock = Sim.Simclock.create () in
  let t = Sim.Timeseries.create ~interval:1.0 () in
  let level = ref 0.0 in
  Sim.Timeseries.set_probe t ~columns:[ "level" ] (fun () -> [| !level |]);
  Sim.Timeseries.attach t clock;
  Sim.Timeseries.add_rule t ~name:"high" ~window:3 (fun w ->
      if Array.for_all (fun s -> s.Sim.Timeseries.s_values.(0) > 10.0) w then
        Some [ ("level", "high") ]
      else None);
  let run n set =
    for _ = 1 to n do
      level := set;
      Sim.Simclock.advance clock 2.0
    done
  in
  run 10 20.0;
  (* condition holds for many windows -> still one warning *)
  Alcotest.(check int) "one warning per episode" 1
    (List.length (Sim.Timeseries.warnings t));
  run 3 5.0;
  (* re-armed *)
  run 5 20.0;
  let warns = Sim.Timeseries.warnings t in
  Alcotest.(check int) "second episode, second warning" 2 (List.length warns);
  List.iter
    (fun (w : Sim.Timeseries.warning) ->
      Alcotest.(check string) "rule name" "high" w.Sim.Timeseries.w_rule;
      Alcotest.(check (list (pair string string)))
        "structured detail"
        [ ("level", "high") ]
        w.Sim.Timeseries.w_detail)
    warns

let test_metrics_export_round_trip () =
  (* The machine-level probe: boot traced, do paging work, and check the
     uvm-sim-metrics/1 JSON carries monotonic samples of real gauges. *)
  let srcs = run_both () in
  let root = export Metrics srcs in
  Alcotest.(check string)
    "schema tag" "uvm-sim-metrics/1"
    (J.to_str (J.member "schema" root));
  List.iter
    (fun s ->
      let columns = List.map J.to_str (J.to_list (J.member "columns" s)) in
      Alcotest.(check bool) "free_pages column" true
        (List.mem "free_pages" columns);
      Alcotest.(check bool) "faults column" true (List.mem "faults" columns);
      let samples = J.to_list (J.member "samples" s) in
      Alcotest.(check bool) "samples captured" true (List.length samples >= 2);
      let ncols = List.length columns in
      let last_ts = ref (-1.0) in
      List.iter
        (fun smp ->
          let ts = J.to_number (J.member "ts" smp) in
          Alcotest.(check bool) "sample timestamps strictly increase" true
            (ts > !last_ts);
          last_ts := ts;
          Alcotest.(check int) "one value per column" ncols
            (List.length (J.to_list (J.member "values" smp))))
        samples)
    (J.to_list (J.member "systems" root))

let test_snapshot_export () =
  let srcs = run_both () in
  let root = export Stats srcs in
  Alcotest.(check string)
    "schema tag" "uvm-sim-stats/2"
    (J.to_str (J.member "schema" root));
  let systems = J.to_list (J.member "systems" root) in
  Alcotest.(check (list string))
    "one entry per label" [ "UVM"; "BSD VM" ]
    (List.map (fun s -> J.to_str (J.member "label" s)) systems);
  List.iter
    (fun s ->
      let faults = J.member "fault" (J.member "histograms" s) in
      Alcotest.(check bool)
        "fault histogram exported" true
        (J.to_number (J.member "count" faults) > 0.0);
      Alcotest.(check bool)
        "p99 >= p50" true
        (J.to_number (J.member "p99" faults) >= J.to_number (J.member "p50" faults));
      Alcotest.(check bool)
        "spans recorded" true
        (J.to_number (J.member "recorded" (J.member "trace" s)) > 0.0))
    systems

(* Tier events (device_dead, migrate, drain_complete, …) are spans like
   everything else: drive a tiered boot through death-and-drain and
   round-trip the Chrome JSON.  The death itself takes no time, so it is
   a zero-length span. *)
let test_tier_event_export () =
  Vmiface.Machine.reset_traced ();
  let config =
    Vmiface.Machine.tiered ~fast_pages:64 ~slow_pages:256
      {
        Vmiface.Machine.default_config with
        ram_pages = 32;
        trace_buf = Some 4096;
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
  (* Touching the set drives the pagedaemon, whose drain migrates the
     dead tier's surviving slots to the slow device. *)
  for i = 0 to 47 do
    ignore (Uvm.Sys.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:1)
  done;
  let src = mach.Vmiface.Machine.trace_source in
  Vmiface.Machine.reset_traced ();
  let root = export Trace [ src ] in
  let events = J.to_list (J.member "traceEvents" root) in
  let named name =
    List.filter
      (fun e -> J.member "name" e = J.String name && J.member "ph" e = J.String "X")
      events
  in
  (match named "device_dead" with
  | [ e ] ->
      Alcotest.(check string)
        "death names the device" "fast"
        (J.to_str (J.member "device" (J.member "args" e)));
      Alcotest.(check (float 0.0))
        "death is a zero-length span" 0.0
        (J.to_number (J.member "dur" e))
  | l -> Alcotest.failf "expected 1 device_dead span, got %d" (List.length l));
  (* A migrate span that found no room carries no destination. *)
  let migrations =
    List.filter
      (fun e -> J.member "to" (J.member "args" e) <> J.Null)
      (named "migrate")
  in
  Alcotest.(check bool) "drain migrations exported" true (migrations <> []);
  List.iter
    (fun e ->
      let args = J.member "args" e in
      Alcotest.(check string) "migrate from the dead tier" "fast"
        (J.to_str (J.member "from" args));
      Alcotest.(check string) "migrate to the healthy tier" "slow"
        (J.to_str (J.member "to" args)))
    migrations;
  Alcotest.(check int)
    "exported migrations match the counter"
    mach.Vmiface.Machine.stats.Sim.Stats.swap_migrations
    (List.length migrations);
  Alcotest.(check bool) "drain completion exported" true
    (named "drain_complete" <> [])

let test_untraced_boot_is_silent () =
  Vmiface.Machine.reset_traced ();
  let sys = Uvm.Sys.boot () in
  let mach = Uvm.Sys.machine sys in
  let vm = Uvm.Sys.new_vmspace sys in
  let vpn =
    Uvm.Sys.mmap sys vm ~npages:4 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
      Vmtypes.Zero
  in
  for i = 0 to 3 do
    Uvm.Sys.touch sys vm ~vpn:(vpn + i) Vmtypes.Write
  done;
  Alcotest.(check int)
    "no spans without trace_buf" 0
    (Sim.Span.recorded mach.Vmiface.Machine.spans);
  Alcotest.(check (list string))
    "no latency series without tracing" []
    (List.map fst (Sim.Span.latencies mach.Vmiface.Machine.spans));
  Alcotest.(check int)
    "untraced boots do not register" 0
    (List.length (Vmiface.Machine.traced ()))

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentiles on uniform 1..1000" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "edge cases" `Quick test_histogram_edge_cases;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          Alcotest.test_case "formats and parsing" `Quick test_json_formats;
        ] );
      ( "export",
        [
          Alcotest.test_case "live tracing both systems" `Quick
            test_live_tracing;
          Alcotest.test_case "UVM fault histogram = fault spans" `Quick
            Uvm_count.check;
          Alcotest.test_case "BSD VM fault histogram = fault spans" `Quick
            Bsd_count.check;
          Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_export;
          Alcotest.test_case "flow event round-trip" `Quick
            test_flow_event_round_trip;
          Alcotest.test_case "stats snapshot round-trip" `Quick
            test_snapshot_export;
          Alcotest.test_case "tier event round-trip" `Quick
            test_tier_event_export;
          Alcotest.test_case "untraced boot is silent" `Quick
            test_untraced_boot_is_silent;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "sampler monotonic + rate math" `Quick
            test_sampler_monotonic_and_rates;
          Alcotest.test_case "watchdog fires once per episode" `Quick
            test_watchdog_fires_once_per_episode;
          Alcotest.test_case "metrics export round-trip" `Quick
            test_metrics_export_round_trip;
        ] );
    ]
