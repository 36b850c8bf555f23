(** Small helpers for printing paper-style tables and series, and for
    building their rows as JSON. *)

let title fmt =
  let hr = String.make 72 '-' in
  Printf.ksprintf
    (fun s ->
      print_endline hr;
      print_endline s;
      print_endline hr)
    fmt

let row4 label a b c = Printf.printf "%-26s %12s %12s %12s\n" label a b c

let seconds us = Printf.sprintf "%.4f s" (us /. 1e6)
let micros us = Printf.sprintf "%.1f us" us

let ratio bsd uvm =
  if uvm = 0.0 then "-" else Printf.sprintf "%.2fx" (bsd /. uvm)

(* A table's document: one object per row, its fields built by [fields]. *)
let rows fields = Sim.Json.list (fun x -> Sim.Json.Object (fields x))

(* The rows of Tables 1 and 2: one count per system. *)
let count_rows =
  rows (fun (label, bsd, uvm) ->
      [ ("label", String label); ("bsd", Int bsd); ("uvm", Int uvm) ])

(* A sweep of simulated times, keyed by its swept parameter. *)
let time_rows key =
  rows (fun (n, bsd, uvm) ->
      [ (key, Int n); ("bsd_us", Sim.Json.float bsd);
        ("uvm_us", Sim.Json.float uvm) ])
