(* Ledger-derived efficacy analytics.  The physical-page provenance ledger
   (lib/physmem) records per-page lifecycle events; this accumulator turns
   them into the distributions the paper argues about: fault-ahead
   hit/waste per madvise mode (§7), pageout cluster shape and swap-slot
   reassignment distance (§6), page residency and re-fault intervals, and
   a census of live map entries over time (§5).  It lives in [sim] so that
   physmem (which sits below the VM layers) can feed it directly. *)

type madv = Madv_normal | Madv_random | Madv_sequential

let nmadv = 3

let madv_index = function
  | Madv_normal -> 0
  | Madv_random -> 1
  | Madv_sequential -> 2

let madv_of_index = function
  | 0 -> Madv_normal
  | 1 -> Madv_random
  | _ -> Madv_sequential

let madv_name = function
  | Madv_normal -> "normal"
  | Madv_random -> "random"
  | Madv_sequential -> "sequential"

type fill = Fill_zero | Fill_file | Fill_pagein | Fill_cow | Fill_wire

let nfill = 5

let fill_index = function
  | Fill_zero -> 0
  | Fill_file -> 1
  | Fill_pagein -> 2
  | Fill_cow -> 3
  | Fill_wire -> 4

let fill_of_index = function
  | 0 -> Fill_zero
  | 1 -> Fill_file
  | 2 -> Fill_pagein
  | 3 -> Fill_cow
  | _ -> Fill_wire

let fill_name = function
  | Fill_zero -> "demand_zero"
  | Fill_file -> "file_read"
  | Fill_pagein -> "pagein"
  | Fill_cow -> "cow_promote"
  | Fill_wire -> "wire"

type t = {
  fa_mapped : int array;  (* per madv: neighbours mapped by fault-ahead *)
  fa_used : int array;  (* per madv: touched through the mapping *)
  fa_wasted : int array;  (* per madv: evicted/refaulted untouched *)
  fills : int array;  (* per fill kind: fault-in resolutions *)
  cluster_size : Histogram.t;  (* pages per pageout cluster write *)
  cluster_runs : Histogram.t;  (* contiguous slot runs per cluster *)
  reassign_dist : Histogram.t;  (* |new slot - old slot| on reassignment *)
  residency_us : Histogram.t;  (* alloc -> free lifetime of a frame *)
  interfault_us : Histogram.t;  (* time between fault-ins of one frame *)
  frag_entries : Histogram.t;  (* live map entries, sampled per alloc/free *)
  mutable frag_live : int;
  mutable frag_peak : int;
  mutable illegal_transitions : int;  (* ledger state-machine violations *)
}

let create () =
  {
    fa_mapped = Array.make nmadv 0;
    fa_used = Array.make nmadv 0;
    fa_wasted = Array.make nmadv 0;
    fills = Array.make nfill 0;
    cluster_size = Histogram.create ();
    cluster_runs = Histogram.create ();
    reassign_dist = Histogram.create ();
    residency_us = Histogram.create ();
    interfault_us = Histogram.create ();
    frag_entries = Histogram.create ();
    frag_live = 0;
    frag_peak = 0;
    illegal_transitions = 0;
  }

let note_fa_mapped t m = t.fa_mapped.(madv_index m) <- t.fa_mapped.(madv_index m) + 1
let note_fa_used t m = t.fa_used.(madv_index m) <- t.fa_used.(madv_index m) + 1
let note_fa_wasted t m = t.fa_wasted.(madv_index m) <- t.fa_wasted.(madv_index m) + 1
let note_fill t k = t.fills.(fill_index k) <- t.fills.(fill_index k) + 1

(* Inlined, with [Histogram.observe], so that the sample is not boxed to
   cross a call where cross-module inlining is on. *)
let[@inline] note_cluster t ~size ~runs =
  Histogram.observe t.cluster_size (float_of_int size);
  Histogram.observe t.cluster_runs (float_of_int runs)

let[@inline] note_reassign t ~dist =
  Histogram.observe t.reassign_dist (float_of_int (abs dist))

let[@inline] note_residency t us = Histogram.observe t.residency_us us
let[@inline] note_interfault t us = Histogram.observe t.interfault_us us

let note_entry_alloc t =
  t.frag_live <- t.frag_live + 1;
  if t.frag_live > t.frag_peak then t.frag_peak <- t.frag_live;
  Histogram.observe t.frag_entries (float_of_int t.frag_live)

let note_entry_free t =
  t.frag_live <- max 0 (t.frag_live - 1);
  Histogram.observe t.frag_entries (float_of_int t.frag_live)

let note_illegal t = t.illegal_transitions <- t.illegal_transitions + 1

let fa_mapped t m = t.fa_mapped.(madv_index m)
let fa_used t m = t.fa_used.(madv_index m)
let fa_wasted t m = t.fa_wasted.(madv_index m)
let fill_count t k = t.fills.(fill_index k)
let frag_live t = t.frag_live
let frag_peak t = t.frag_peak
let illegal_transitions t = t.illegal_transitions

let hist_rows t =
  [
    ("cluster_size_pages", t.cluster_size);
    ("cluster_slot_runs", t.cluster_runs);
    ("reassign_distance_slots", t.reassign_dist);
    ("residency_us", t.residency_us);
    ("interfault_us", t.interfault_us);
    ("live_map_entries", t.frag_entries);
  ]

let merge ~into src =
  for i = 0 to nmadv - 1 do
    into.fa_mapped.(i) <- into.fa_mapped.(i) + src.fa_mapped.(i);
    into.fa_used.(i) <- into.fa_used.(i) + src.fa_used.(i);
    into.fa_wasted.(i) <- into.fa_wasted.(i) + src.fa_wasted.(i)
  done;
  for i = 0 to nfill - 1 do
    into.fills.(i) <- into.fills.(i) + src.fills.(i)
  done;
  List.iter2
    (fun (_, a) (_, b) -> Histogram.merge ~into:a b)
    (hist_rows into) (hist_rows src);
  (* frag_live is an instantaneous gauge; summing gauges across machines is
     the only meaningful aggregate for a fleet snapshot. *)
  into.frag_live <- into.frag_live + src.frag_live;
  into.frag_peak <- max into.frag_peak src.frag_peak;
  into.illegal_transitions <- into.illegal_transitions + src.illegal_transitions
