(** Small helpers for printing paper-style tables and series, and for
    writing their rows as JSON. *)

let hr () = print_endline (String.make 72 '-')

let title fmt =
  Printf.ksprintf
    (fun s ->
      hr ();
      print_endline s;
      hr ())
    fmt

let row4 label a b c = Printf.printf "%-26s %12s %12s %12s\n" label a b c

let seconds us = Printf.sprintf "%.4f s" (us /. 1e6)
let micros us = Printf.sprintf "%.1f us" us

let ratio bsd uvm =
  if uvm = 0.0 then "-" else Printf.sprintf "%.2fx" (bsd /. uvm)

(* -- JSON rows: tiny combinators over Buffer, sharing the escaper with the
   simulator's trace exporters. *)

let obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char buf ',';
      Sim.Trace_export.json_string buf k;
      Buffer.add_char buf ':';
      emit buf)
    fields;
  Buffer.add_char buf '}'

let arr emit items buf =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      emit x buf)
    items;
  Buffer.add_char buf ']'

let jint n buf = Buffer.add_string buf (string_of_int n)
let jfloat v buf = Buffer.add_string buf (Printf.sprintf "%.3f" v)
let jstr s buf = Sim.Trace_export.json_string buf s

(* The rows of Tables 1 and 2: one count per system. *)
let count_rows rows =
  arr
    (fun (label, bsd, uvm) buf ->
      obj buf [ ("label", jstr label); ("bsd", jint bsd); ("uvm", jint uvm) ])
    rows

(* A sweep of simulated times, keyed by its swept parameter. *)
let time_rows key rows =
  arr
    (fun (n, bsd, uvm) buf ->
      obj buf [ (key, jint n); ("bsd_us", jfloat bsd); ("uvm_us", jfloat uvm) ])
    rows
