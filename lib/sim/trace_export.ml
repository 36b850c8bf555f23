(** Exporters for the observability layer.

    A {!source} bundles one traced machine's span collector (the single
    event stream, latency histograms included) and counters under a
    display label ("UVM", "BSD VM").  The exporters consume a list of
    sources so one run of an experiment — which boots both VM systems,
    possibly several times — lands in a single artifact:

    - {!chrome_json}: Chrome trace-event JSON, loadable in Perfetto or
      [chrome://tracing].  Each source becomes a process, each span
      subsystem a thread; every span is a complete ("X") event.
    - {!snapshot_json}: counters + histogram summaries, machine-readable.
    - {!pp_dump}: flat human-readable span listing.
    - {!print_stats}: the per-label counter/percentile tables behind the
      CLI's [--stats] flag.

    JSON is emitted by hand: the toolchain deliberately has no JSON
    dependency, and the two fixed schemas here do not justify one. *)

type source = {
  mutable label : string;
  stats : Stats.t;
  lifecycle : Lifecycle.t;
  spans : Span.t;
  series : Timeseries.t;
  locks : Lockstat.t option;  (* the machine's lock registry *)
  mutable sync : unit -> unit;
      (* refresh the gauge fields of [stats] from the live machine;
         installed by Machine.boot, called before any counter export *)
}

(* -- JSON primitives --------------------------------------------------- *)

let json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_float buf v =
  if Float.is_finite v then
    (* %.17g round-trips but is noisy; microsecond values need no more
       than nanosecond precision. *)
    Buffer.add_string buf (Printf.sprintf "%.3f" v)
  else Buffer.add_string buf "0"

let json_sep buf first = if !first then first := false else Buffer.add_char buf ','

(* -- Chrome trace-event format ----------------------------------------- *)

let chrome_metadata buf ~pid ~tid ~name ~value =
  Buffer.add_string buf
    (Printf.sprintf "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":" pid tid);
  json_string buf name;
  Buffer.add_string buf ",\"args\":{\"name\":";
  json_string buf value;
  Buffer.add_string buf "}}"

(* Spans land on tracks, one per span subsystem, numbered from 1 in
   first-seen order.  Flow arrows ("s"/"f" pairs keyed by the child's
   span id) link each child back to its parent so Perfetto draws the
   causal tree across tracks. *)
let chrome_flow buf ~pid ~tid ~id ~ts ~ph =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"cause\",\"cat\":\"span\",\"ph\":\"%s\"%s" ph
       (if ph = "f" then ",\"bp\":\"e\"" else ""));
  Buffer.add_string buf (Printf.sprintf ",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":" id pid tid);
  json_float buf ts;
  Buffer.add_string buf ",\"args\":{}}"

let chrome_spans buf ~pid ~first spans =
  let tracks =
    List.fold_left
      (fun acc (sp : Span.span) ->
        if List.mem sp.ssubsys acc then acc else acc @ [ sp.ssubsys ])
      [] spans
  in
  let track_tid s =
    let rec idx i = function
      | [] -> 1
      | x :: _ when x = s -> i
      | _ :: tl -> idx (i + 1) tl
    in
    idx 1 tracks
  in
  List.iter
    (fun s ->
      json_sep buf first;
      chrome_metadata buf ~pid ~tid:(track_tid s) ~name:"thread_name"
        ~value:("span:" ^ s))
    tracks;
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Span.span) -> Hashtbl.replace by_id sp.sid sp) spans;
  List.iter
    (fun (sp : Span.span) ->
      json_sep buf first;
      Buffer.add_string buf "{\"name\":";
      json_string buf sp.sname;
      Buffer.add_string buf ",\"cat\":\"span\"";
      Buffer.add_string buf
        (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"ts\":" pid
           (track_tid sp.ssubsys));
      json_float buf sp.sts;
      Buffer.add_string buf ",\"ph\":\"X\",\"dur\":";
      json_float buf (Float.max sp.sdur 0.0);
      Buffer.add_string buf
        (Printf.sprintf ",\"args\":{\"trace\":%d,\"span\":%d,\"parent\":%d"
           sp.strace sp.sid sp.sparent);
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          json_string buf k;
          Buffer.add_char buf ':';
          json_string buf v)
        sp.sdetail;
      Buffer.add_string buf "}}";
      match Hashtbl.find_opt by_id sp.sparent with
      | None -> ()  (* root, or the parent was overwritten in the ring *)
      | Some parent ->
          json_sep buf first;
          chrome_flow buf ~pid ~tid:(track_tid parent.ssubsys) ~id:sp.sid
            ~ts:sp.sts ~ph:"s";
          json_sep buf first;
          chrome_flow buf ~pid ~tid:(track_tid sp.ssubsys) ~id:sp.sid
            ~ts:sp.sts ~ph:"f")
    spans

let chrome_json buf sources =
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun i src ->
      let pid = i + 1 in
      json_sep buf first;
      chrome_metadata buf ~pid ~tid:0 ~name:"process_name" ~value:src.label;
      chrome_spans buf ~pid ~first (Span.spans src.spans))
    sources;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n"

(* -- per-label aggregation --------------------------------------------- *)

(* Several boots of the same system (a sweep experiment) share a label;
   exporters fold them into one logical system. *)
type agg = {
  agg_label : string;
  counters : (string * float) list;  (* declaration order, summed *)
  hists : (string * Histogram.t) list;  (* merged, sorted by name *)
  agg_life : Lifecycle.t;  (* merged ledger analytics *)
  agg_recorded : int;
  agg_dropped : int;
}

let aggregate sources =
  List.iter (fun s -> s.sync ()) sources;
  let labels =
    List.fold_left
      (fun acc s -> if List.mem s.label acc then acc else acc @ [ s.label ])
      [] sources
  in
  List.map
    (fun label ->
      let group = List.filter (fun s -> s.label = label) sources in
      let counters =
        match group with
        | [] -> []
        | first :: rest ->
            List.fold_left
              (fun acc s ->
                List.map2
                  (fun (name, v) (name', v') ->
                    assert (name = name');
                    (name, v +. v'))
                  acc
                  (Stats.to_rows s.stats))
              (Stats.to_rows first.stats) rest
      in
      let hset = Histogram.create_set () in
      List.iter
        (fun s ->
          List.iter
            (fun (name, h) -> Histogram.merge ~into:(Histogram.get hset name) h)
            (Span.latencies s.spans))
        group;
      let life = Lifecycle.create () in
      List.iter (fun s -> Lifecycle.merge ~into:life s.lifecycle) group;
      {
        agg_label = label;
        counters;
        hists = Histogram.rows hset;
        agg_life = life;
        agg_recorded =
          List.fold_left (fun n s -> n + Span.recorded s.spans) 0 group;
        agg_dropped =
          List.fold_left (fun n s -> n + Span.dropped s.spans) 0 group;
      })
    labels

(* -- stats/histogram snapshot ------------------------------------------ *)

let json_hist buf h =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"count\":%d,\"sum\":%.3f,\"mean\":%.3f,\"min\":%.3f,\
        \"max\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f}"
       (Histogram.count h) (Histogram.sum h) (Histogram.mean h)
       (Histogram.min_value h) (Histogram.max_value h) (Histogram.p50 h)
       (Histogram.p95 h) (Histogram.p99 h))

let snapshot_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-stats/2\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun a ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf a.agg_label;
      Buffer.add_string buf ",\"counters\":{";
      let first = ref true in
      List.iter
        (fun (name, v) ->
          if v <> 0.0 then begin
            json_sep buf first;
            json_string buf name;
            Buffer.add_char buf ':';
            json_float buf v
          end)
        a.counters;
      Buffer.add_string buf "},\"histograms\":{";
      let first = ref true in
      List.iter
        (fun (name, h) ->
          json_sep buf first;
          json_string buf name;
          Buffer.add_char buf ':';
          json_hist buf h)
        a.hists;
      Buffer.add_string buf
        (Printf.sprintf "},\"trace\":{\"recorded\":%d,\"dropped\":%d}}"
           a.agg_recorded a.agg_dropped))
    (aggregate sources);
  Buffer.add_string buf "]}\n"

(* -- span export -------------------------------------------------------- *)

let json_span buf (sp : Span.span) =
  Buffer.add_string buf
    (Printf.sprintf "{\"span\":%d,\"trace\":%d,\"parent\":%d,\"name\":" sp.sid
       sp.strace sp.sparent);
  json_string buf sp.sname;
  Buffer.add_string buf ",\"subsys\":";
  json_string buf sp.ssubsys;
  Buffer.add_string buf ",\"ts\":";
  json_float buf sp.sts;
  if sp.sdur >= 0.0 then begin
    Buffer.add_string buf ",\"dur\":";
    json_float buf sp.sdur
  end;
  Buffer.add_string buf ",\"detail\":{";
  let first = ref true in
  List.iter
    (fun (k, v) ->
      json_sep buf first;
      json_string buf k;
      Buffer.add_char buf ':';
      json_string buf v)
    sp.sdetail;
  Buffer.add_string buf "}}"

(* Spans are exported per source, not folded per label: span and trace
   ids are only unique within one collector, so merging sweeps under a
   label would alias unrelated trees. *)
let spans_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-spans/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun src ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf src.label;
      Buffer.add_string buf ",\"spans\":[";
      let first = ref true in
      List.iter
        (fun sp ->
          json_sep buf first;
          json_span buf sp)
        (Span.spans src.spans);
      (* Spans still open at export time: the active causal tree,
         outermost first (what a crash artifact wants). *)
      Buffer.add_string buf "],\"open\":[";
      let first = ref true in
      List.iter
        (fun sp ->
          json_sep buf first;
          json_span buf sp)
        (Span.open_spans src.spans);
      Buffer.add_string buf
        (Printf.sprintf "],\"recorded\":%d,\"dropped\":%d}"
           (Span.recorded src.spans) (Span.dropped src.spans)))
    sources;
  Buffer.add_string buf "]}\n"

(* -- lock observatory export -------------------------------------------- *)

let json_lock_class buf (cv : Lockstat.class_view) =
  Buffer.add_string buf "{\"class\":";
  json_string buf cv.Lockstat.cv_cls;
  Buffer.add_string buf
    (Printf.sprintf
       ",\"instances\":%d,\"acquires\":%d,\"reads\":%d,\"writes\":%d"
       cv.Lockstat.cv_instances cv.Lockstat.cv_acquires cv.Lockstat.cv_reads
       cv.Lockstat.cv_writes);
  Buffer.add_string buf ",\"hold_us\":";
  json_hist buf cv.Lockstat.cv_hold;
  Buffer.add_string buf ",\"read_hold_us\":";
  json_hist buf cv.Lockstat.cv_read_hold;
  Buffer.add_string buf ",\"write_hold_us\":";
  json_hist buf cv.Lockstat.cv_write_hold;
  Buffer.add_string buf ",\"mean_hold_us\":";
  json_float buf (Histogram.mean cv.Lockstat.cv_hold);
  Buffer.add_string buf ",\"max_hold_us\":";
  json_float buf cv.Lockstat.cv_max_hold_us;
  Buffer.add_string buf ",\"by_subsys\":[";
  let first = ref true in
  List.iter
    (fun (subsys, holds, total) ->
      json_sep buf first;
      Buffer.add_string buf "{\"subsys\":";
      json_string buf subsys;
      Buffer.add_string buf (Printf.sprintf ",\"holds\":%d,\"total_us\":" holds);
      json_float buf total;
      Buffer.add_string buf "}")
    cv.Lockstat.cv_by_subsys;
  Buffer.add_string buf "]}"

(* The "systems" array of the uvm-sim-lockstat/2 schema: sources sharing
   a label (several boots of one system in a sweep) are merged into one
   registry — histograms, attribution and order edges sum. *)
let lockstat_systems buf sources =
  let labels =
    List.fold_left
      (fun acc s -> if List.mem s.label acc then acc else acc @ [ s.label ])
      [] sources
  in
  Buffer.add_char buf '[';
  let first_sys = ref true in
  List.iter
    (fun label ->
      let group = List.filter (fun s -> s.label = label) sources in
      let regs = List.filter_map (fun s -> s.locks) group in
      let merged = Lockstat.create ~now:(fun () -> 0.0) () in
      List.iter (fun r -> Lockstat.merge ~into:merged r) regs;
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf label;
      Buffer.add_string buf ",\"classes\":[";
      let first = ref true in
      List.iter
        (fun cv ->
          json_sep buf first;
          json_lock_class buf cv)
        (Lockstat.views merged);
      Buffer.add_string buf "],\"order_edges\":[";
      let first = ref true in
      List.iter
        (fun (a, b, n) ->
          json_sep buf first;
          Buffer.add_string buf "{\"from\":";
          json_string buf a;
          Buffer.add_string buf ",\"to\":";
          json_string buf b;
          Buffer.add_string buf (Printf.sprintf ",\"count\":%d}" n))
        (Lockstat.order_edges merged);
      Buffer.add_string buf "],\"cycles\":[";
      let first = ref true in
      List.iter
        (fun cyc ->
          json_sep buf first;
          Buffer.add_char buf '[';
          let fc = ref true in
          List.iter
            (fun cls ->
              json_sep buf fc;
              json_string buf cls)
            cyc;
          Buffer.add_char buf ']')
        (Lockstat.cycles merged);
      (* Locks still held right now (crash artifacts): per live
         registry, innermost first — merge does not carry hold state. *)
      Buffer.add_string buf "],\"held\":[";
      let first = ref true in
      List.iter
        (fun reg ->
          List.iter
            (fun (cls, name) ->
              json_sep buf first;
              Buffer.add_string buf "{\"class\":";
              json_string buf cls;
              Buffer.add_string buf ",\"instance\":";
              json_string buf name;
              Buffer.add_string buf "}")
            (Lockstat.held reg))
        regs;
      Buffer.add_string buf "]}")
    labels;
  Buffer.add_char buf ']'

let lockstat_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-lockstat/2\",\"systems\":";
  lockstat_systems buf sources;
  Buffer.add_string buf "}\n"

(* -- time-series export ------------------------------------------------- *)

let metrics_json buf sources =
  List.iter (fun s -> s.sync ()) sources;
  Buffer.add_string buf "{\"schema\":\"uvm-sim-metrics/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun src ->
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf src.label;
      Buffer.add_string buf ",\"columns\":[";
      let first = ref true in
      List.iter
        (fun c ->
          json_sep buf first;
          json_string buf c)
        (Timeseries.columns src.series);
      Buffer.add_string buf "],\"samples\":[";
      let first = ref true in
      List.iter
        (fun (s : Timeseries.sample) ->
          json_sep buf first;
          Buffer.add_string buf "{\"ts\":";
          json_float buf s.s_ts;
          Buffer.add_string buf ",\"values\":[";
          let fv = ref true in
          Array.iter
            (fun v ->
              json_sep buf fv;
              json_float buf v)
            s.s_values;
          Buffer.add_string buf "]}")
        (Timeseries.samples src.series);
      Buffer.add_string buf "],\"warnings\":[";
      let first = ref true in
      List.iter
        (fun (w : Timeseries.warning) ->
          json_sep buf first;
          Buffer.add_string buf "{\"ts\":";
          json_float buf w.w_ts;
          Buffer.add_string buf ",\"rule\":";
          json_string buf w.w_rule;
          Buffer.add_string buf ",\"detail\":{";
          let fd = ref true in
          List.iter
            (fun (k, v) ->
              json_sep buf fd;
              json_string buf k;
              Buffer.add_char buf ':';
              json_string buf v)
            w.w_detail;
          Buffer.add_string buf "}}")
        (Timeseries.warnings src.series);
      Buffer.add_string buf "]}")
    sources;
  Buffer.add_string buf "]}\n"

(* -- human-readable ----------------------------------------------------- *)

let pp_dump fmt sources =
  List.iter
    (fun src ->
      let spans = Span.spans src.spans in
      Format.fprintf fmt "=== %s: %d spans (%d dropped) ===@." src.label
        (List.length spans) (Span.dropped src.spans);
      List.iter
        (fun (sp : Span.span) ->
          Format.fprintf fmt "%12.1f us  %-10s %-16s dur=%.1fus" sp.sts
            sp.ssubsys sp.sname sp.sdur;
          List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) sp.sdetail;
          Format.fprintf fmt "@.")
        spans)
    sources

let print_stats sources =
  List.iter
    (fun a ->
      Printf.printf "\n== %s: counters ==\n" a.agg_label;
      List.iter
        (fun (name, v) ->
          if v <> 0.0 then
            if Float.is_integer v then
              Printf.printf "  %-26s %12.0f\n" name v
            else Printf.printf "  %-26s %12.1f\n" name v)
        a.counters;
      if a.hists <> [] then begin
        Printf.printf "== %s: latency percentiles (simulated us) ==\n"
          a.agg_label;
        Printf.printf "  %-22s %8s %10s %10s %10s %10s %10s\n" "series" "count"
          "mean" "p50" "p95" "p99" "max";
        List.iter
          (fun (name, h) ->
            Printf.printf "  %-22s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n"
              name (Histogram.count h) (Histogram.mean h) (Histogram.p50 h)
              (Histogram.p95 h) (Histogram.p99 h) (Histogram.max_value h))
          a.hists
      end;
      if a.agg_recorded > 0 then
        Printf.printf "== %s: trace: %d spans recorded, %d dropped ==\n"
          a.agg_label a.agg_recorded a.agg_dropped)
    (aggregate sources)

(* -- efficacy report (ledger-derived) ----------------------------------- *)

let all_madv =
  [ Lifecycle.Madv_normal; Lifecycle.Madv_random; Lifecycle.Madv_sequential ]

let all_fills =
  [
    Lifecycle.Fill_zero;
    Lifecycle.Fill_file;
    Lifecycle.Fill_pagein;
    Lifecycle.Fill_cow;
    Lifecycle.Fill_wire;
  ]

let hit_rate used wasted =
  let resolved = used + wasted in
  if resolved = 0 then 0.0
  else 100.0 *. float_of_int used /. float_of_int resolved

let report_json buf sources =
  Buffer.add_string buf "{\"schema\":\"uvm-sim-report/1\",\"systems\":[";
  let first_sys = ref true in
  List.iter
    (fun a ->
      let life = a.agg_life in
      json_sep buf first_sys;
      Buffer.add_string buf "{\"label\":";
      json_string buf a.agg_label;
      Buffer.add_string buf ",\"fault_ahead\":{";
      let first = ref true in
      List.iter
        (fun m ->
          json_sep buf first;
          json_string buf (Lifecycle.madv_name m);
          let used = Lifecycle.fa_used life m
          and wasted = Lifecycle.fa_wasted life m in
          Buffer.add_string buf
            (Printf.sprintf
               ":{\"mapped\":%d,\"used\":%d,\"wasted\":%d,\"hit_rate\":%.1f}"
               (Lifecycle.fa_mapped life m) used wasted (hit_rate used wasted)))
        all_madv;
      Buffer.add_string buf "},\"fills\":{";
      let first = ref true in
      List.iter
        (fun k ->
          json_sep buf first;
          json_string buf (Lifecycle.fill_name k);
          Buffer.add_string buf
            (Printf.sprintf ":%d" (Lifecycle.fill_count life k)))
        all_fills;
      Buffer.add_string buf "},\"distributions\":{";
      let first = ref true in
      List.iter
        (fun (name, h) ->
          json_sep buf first;
          json_string buf name;
          Buffer.add_char buf ':';
          json_hist buf h)
        (Lifecycle.hist_rows life);
      Buffer.add_string buf
        (Printf.sprintf
           "},\"fragmentation\":{\"live_entries\":%d,\"peak_entries\":%d}"
           (Lifecycle.frag_live life) (Lifecycle.frag_peak life));
      Buffer.add_string buf
        (Printf.sprintf ",\"ledger\":{\"illegal_transitions\":%d}}"
           (Lifecycle.illegal_transitions life)))
    (aggregate sources);
  Buffer.add_string buf "]}\n"

(* Side-by-side human tables: one column per aggregated label. *)
let print_report sources =
  let aggs = aggregate sources in
  if aggs <> [] then begin
    let col v = Printf.sprintf "%14s" v in
    let header title =
      Printf.printf "\n== %s ==\n%-34s" title "";
      List.iter (fun a -> print_string (col a.agg_label)) aggs;
      print_newline ()
    in
    let row name value =
      Printf.printf "%-34s" name;
      List.iter (fun a -> print_string (col (value a.agg_life))) aggs;
      print_newline ()
    in
    let int_row name value = row name (fun l -> string_of_int (value l)) in
    header "fault-ahead efficacy (per madvise mode)";
    List.iter
      (fun m ->
        let n = Lifecycle.madv_name m in
        int_row
          (Printf.sprintf "%s: neighbours premapped" n)
          (fun l -> Lifecycle.fa_mapped l m);
        int_row
          (Printf.sprintf "%s: used (fault avoided)" n)
          (fun l -> Lifecycle.fa_used l m);
        int_row
          (Printf.sprintf "%s: wasted (mapped in vain)" n)
          (fun l -> Lifecycle.fa_wasted l m);
        row
          (Printf.sprintf "%s: hit rate" n)
          (fun l ->
            Printf.sprintf "%.1f%%"
              (hit_rate (Lifecycle.fa_used l m) (Lifecycle.fa_wasted l m))))
      all_madv;
    header "fault-in kinds (ledger fills)";
    List.iter
      (fun k ->
        int_row (Lifecycle.fill_name k) (fun l -> Lifecycle.fill_count l k))
      all_fills;
    let dist (name, title) =
      let h l = List.assoc name (Lifecycle.hist_rows l) in
      header title;
      int_row "samples" (fun l -> Histogram.count (h l));
      row "mean" (fun l -> Printf.sprintf "%.1f" (Histogram.mean (h l)));
      List.iter
        (fun (pname, p) ->
          row pname (fun l ->
              Printf.sprintf "%.1f" (Histogram.percentile (h l) p)))
        [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ];
      row "max" (fun l -> Printf.sprintf "%.1f" (Histogram.max_value (h l)))
    in
    dist ("cluster_size_pages", "pageout cluster size (pages/write)");
    dist ("cluster_slot_runs", "pageout cluster contiguity (slot runs)");
    dist ("reassign_distance_slots", "swap-slot reassignment distance");
    dist ("residency_us", "frame residency time (us)");
    dist ("interfault_us", "per-frame inter-fault interval (us)");
    dist ("live_map_entries", "map-entry fragmentation census");
    header "map entries / ledger";
    int_row "live entries now" Lifecycle.frag_live;
    int_row "peak live entries" Lifecycle.frag_peak;
    int_row "illegal ledger transitions" Lifecycle.illegal_transitions
  end
