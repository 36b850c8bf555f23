(** Exporters for the observability layer.

    A {!source} bundles one traced machine's span collector (the single
    event stream, latency histograms included) and counters under a
    display label ("UVM", "BSD VM").  The exporters consume a list of
    sources so one run of an experiment — which boots both VM systems,
    possibly several times — lands in a single artifact:

    - {!export}: every machine-readable artifact, one {!Json.t} per
      {!artifact} kind, printed by {!Json}.
    - {!pp_dump}: flat human-readable span listing.
    - {!print_stats}: the per-label counter/percentile tables behind the
      CLI's [--stats] flag. *)

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

(* The distinct keys of [xs] in first-seen order. *)
let first_seen key xs =
  List.rev
    (List.fold_left
       (fun acc x ->
         let k = key x in
         if List.mem k acc then acc else k :: acc)
       [] xs)

(* Several boots of the same system (a sweep experiment) share a label;
   the aggregating exporters fold each label's sources into one logical
   system. *)
let by_label sources =
  List.map
    (fun label -> (label, List.filter (fun s -> s.label = label) sources))
    (first_seen (fun s -> s.label) sources)

(* Label-value details (span details, warning details) as JSON fields. *)
let strings kvs = List.map (fun (k, v) -> (k, Json.String v)) kvs

(* An artifact: its schema tag over one object per system. *)
let document schema f systems =
  Json.Object [ ("schema", String schema); ("systems", Json.list f systems) ]

(* -- Chrome trace-event format ----------------------------------------- *)

let chrome_metadata ~pid ~tid ~name ~value =
  Json.Object
    [ ("ph", String "M"); ("pid", Int pid); ("tid", Int tid);
      ("name", String name); ("args", Object (strings [ ("name", value) ])) ]

(* Spans land on tracks, one per span subsystem, numbered from 1 in
   first-seen order.  Flow arrows ("s"/"f" pairs keyed by the child's
   span id) link each child back to its parent so Perfetto draws the
   causal tree across tracks. *)
let chrome_flow ~pid ~tid ~id ~ts ~ph =
  Json.Object
    ([ ("name", Json.String "cause"); ("cat", String "span"); ("ph", String ph) ]
    @ (if ph = "f" then [ ("bp", Json.String "e") ] else [])
    @ [ ("id", Int id); ("pid", Int pid); ("tid", Int tid);
        ("ts", Json.float ts); ("args", Object []) ])

let chrome_spans ~pid spans =
  let tids =
    List.mapi (fun i s -> (s, i + 1))
      (first_seen (fun (sp : Span.span) -> sp.ssubsys) spans)
  in
  let track_tid s = List.assoc s tids in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Span.span) -> Hashtbl.replace by_id sp.sid sp) spans;
  List.map
    (fun (s, tid) ->
      chrome_metadata ~pid ~tid ~name:"thread_name" ~value:("span:" ^ s))
    tids
  @ List.concat_map
      (fun (sp : Span.span) ->
        let tid = track_tid sp.ssubsys in
        let args =
          [ ("trace", Json.Int sp.strace); ("span", Int sp.sid);
            ("parent", Int sp.sparent) ]
          @ strings sp.sdetail
        in
        let event =
          Json.Object
            [ ("name", String sp.sname); ("cat", String "span");
              ("pid", Int pid); ("tid", Int tid); ("ts", Json.float sp.sts);
              ("ph", String "X"); ("dur", Json.float (Float.max sp.sdur 0.0));
              ("args", Object args) ]
        in
        match Hashtbl.find_opt by_id sp.sparent with
        | None -> [ event ]  (* root, or the parent was overwritten in the ring *)
        | Some parent ->
            let flow ~tid ~ph = chrome_flow ~pid ~tid ~id:sp.sid ~ts:sp.sts ~ph in
            [ event; flow ~tid:(track_tid parent.ssubsys) ~ph:"s";
              flow ~tid ~ph:"f" ])
      spans

let chrome_json sources =
  let process i src =
    let pid = i + 1 in
    chrome_metadata ~pid ~tid:0 ~name:"process_name" ~value:src.label
    :: chrome_spans ~pid (Span.spans src.spans)
  in
  Json.Object
    [ ("traceEvents", List (List.concat (List.mapi process sources)));
      ("displayTimeUnit", String "ms") ]

(* -- per-label aggregation --------------------------------------------- *)

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
  List.map
    (fun (label, group) ->
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
    (by_label sources)

(* -- stats/histogram snapshot ------------------------------------------ *)

let json_hist h =
  let f = Json.float in
  Json.Object
    [ ("count", Int (Histogram.count h)); ("sum", f (Histogram.sum h));
      ("mean", f (Histogram.mean h)); ("min", f (Histogram.min_value h));
      ("max", f (Histogram.max_value h)); ("p50", f (Histogram.p50 h));
      ("p95", f (Histogram.p95 h)); ("p99", f (Histogram.p99 h)) ]

let hists rows =
  Json.Object (List.map (fun (name, h) -> (name, json_hist h)) rows)

let snapshot_json sources =
  document "uvm-sim-stats/2"
    (fun a ->
      let nonzero (name, v) =
        if v <> 0.0 then Some (name, Json.float v) else None
      in
      Json.Object
        [ ("label", String a.agg_label);
          ("counters", Object (List.filter_map nonzero a.counters));
          ("histograms", hists a.hists);
          ( "trace",
            Object
              [ ("recorded", Int a.agg_recorded); ("dropped", Int a.agg_dropped) ]
          ) ])
    (aggregate sources)

(* -- span export -------------------------------------------------------- *)

let json_span (sp : Span.span) =
  Json.Object
    ([ ("span", Json.Int sp.sid); ("trace", Int sp.strace);
       ("parent", Int sp.sparent); ("name", String sp.sname);
       ("subsys", String sp.ssubsys); ("ts", Json.float sp.sts) ]
    @ (if sp.sdur >= 0.0 then [ ("dur", Json.float sp.sdur) ] else [])
    @ [ ("detail", Object (strings sp.sdetail)) ])

(* Spans are exported per source, not folded per label: span and trace
   ids are only unique within one collector, so merging sweeps under a
   label would alias unrelated trees. *)
let spans_json sources =
  document "uvm-sim-spans/1"
    (fun src ->
      Json.Object
        [ ("label", String src.label);
          ("spans", Json.list json_span (Span.spans src.spans));
          (* Spans still open at export time: the active causal tree,
             outermost first (what a crash artifact wants). *)
          ("open", Json.list json_span (Span.open_spans src.spans));
          ("recorded", Int (Span.recorded src.spans));
          ("dropped", Int (Span.dropped src.spans)) ])
    sources

(* -- lock observatory export -------------------------------------------- *)

let json_lock_class (cv : Lockstat.class_view) =
  let by_subsys (subsys, holds, total) =
    Json.Object
      [ ("subsys", String subsys); ("holds", Int holds);
        ("total_us", Json.float total) ]
  in
  Json.Object
    [ ("class", String cv.cv_cls); ("instances", Int cv.cv_instances);
      ("acquires", Int cv.cv_acquires); ("reads", Int cv.cv_reads);
      ("writes", Int cv.cv_writes); ("hold_us", json_hist cv.cv_hold);
      ("read_hold_us", json_hist cv.cv_read_hold);
      ("write_hold_us", json_hist cv.cv_write_hold);
      ("mean_hold_us", Json.float (Histogram.mean cv.cv_hold));
      ("max_hold_us", Json.float cv.cv_max_hold_us);
      ("by_subsys", Json.list by_subsys cv.cv_by_subsys) ]

(* The "systems" array of the uvm-sim-lockstat/2 schema: sources sharing
   a label (several boots of one system in a sweep) are merged into one
   registry — histograms, attribution and order edges sum. *)
let lockstat_systems sources =
  Json.list
    (fun (label, group) ->
      let regs = List.filter_map (fun s -> s.locks) group in
      let merged = Lockstat.create ~now:(fun () -> 0.0) () in
      List.iter (fun r -> Lockstat.merge ~into:merged r) regs;
      let edge (a, b, n) =
        Json.Object [ ("from", String a); ("to", String b); ("count", Int n) ]
      in
      let held reg =
        List.map
          (fun (cls, name) ->
            Json.Object [ ("class", String cls); ("instance", String name) ])
          (Lockstat.held reg)
      in
      Json.Object
        [ ("label", String label);
          ("classes", Json.list json_lock_class (Lockstat.views merged));
          ("order_edges", Json.list edge (Lockstat.order_edges merged));
          ( "cycles",
            Json.list
              (Json.list (fun c -> Json.String c))
              (Lockstat.cycles merged) );
          (* Locks still held right now (crash artifacts): per live
             registry, innermost first — merge does not carry hold
             state. *)
          ("held", List (List.concat_map held regs)) ])
    (by_label sources)

let lockstat_json sources =
  Json.Object
    [ ("schema", String "uvm-sim-lockstat/2");
      ("systems", lockstat_systems sources) ]

(* -- time-series export ------------------------------------------------- *)

let metrics_json sources =
  List.iter (fun s -> s.sync ()) sources;
  let sample (s : Timeseries.sample) =
    Json.Object
      [ ("ts", Json.float s.s_ts);
        ("values", Json.list Json.float (Array.to_list s.s_values)) ]
  in
  let warning (w : Timeseries.warning) =
    Json.Object
      [ ("ts", Json.float w.w_ts); ("rule", String w.w_rule);
        ("detail", Object (strings w.w_detail)) ]
  in
  document "uvm-sim-metrics/1"
    (fun src ->
      Json.Object
        [ ("label", String src.label);
          ( "columns",
            Json.list (fun c -> Json.String c) (Timeseries.columns src.series) );
          ("samples", Json.list sample (Timeseries.samples src.series));
          ("warnings", Json.list warning (Timeseries.warnings src.series)) ])
    sources

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

let report_json sources =
  document "uvm-sim-report/1"
    (fun a ->
      let life = a.agg_life in
      let fault_ahead m =
        let used = Lifecycle.fa_used life m
        and wasted = Lifecycle.fa_wasted life m in
        ( Lifecycle.madv_name m,
          Json.Object
            [ ("mapped", Int (Lifecycle.fa_mapped life m)); ("used", Int used);
              ("wasted", Int wasted);
              ("hit_rate", Json.float ~decimals:1 (hit_rate used wasted)) ] )
      in
      let fill k =
        (Lifecycle.fill_name k, Json.Int (Lifecycle.fill_count life k))
      in
      Json.Object
        [ ("label", String a.agg_label);
          ("fault_ahead", Object (List.map fault_ahead all_madv));
          ("fills", Object (List.map fill all_fills));
          ("distributions", hists (Lifecycle.hist_rows life));
          ( "fragmentation",
            Object
              [ ("live_entries", Int (Lifecycle.frag_live life));
                ("peak_entries", Int (Lifecycle.frag_peak life)) ] );
          ( "ledger",
            Object
              [ ("illegal_transitions", Int (Lifecycle.illegal_transitions life)) ]
          ) ])
    (aggregate sources)

(* -- the artifact table ------------------------------------------------- *)

type artifact = Trace | Stats | Report | Spans | Metrics | Lockstat

let every_artifact = [ Trace; Stats; Report; Spans; Metrics; Lockstat ]

let artifact_name = function
  | Trace -> "trace"
  | Stats -> "stats"
  | Report -> "report"
  | Spans -> "spans"
  | Metrics -> "metrics"
  | Lockstat -> "lockstat"

let export = function
  | Trace -> chrome_json
  | Stats -> snapshot_json
  | Report -> report_json
  | Spans -> spans_json
  | Metrics -> metrics_json
  | Lockstat -> lockstat_json

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
