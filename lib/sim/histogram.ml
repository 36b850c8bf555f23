(* Four buckets per octave: bucket 0 holds [0,1) and bucket i >= 1 holds
   [lambda^(i-1), lambda^i) with lambda = 2^(1/4).  200 buckets reach
   ~1e15 us, far beyond any simulated run; larger samples clamp into the
   last bucket. *)

let lambda = Float.pow 2.0 0.25
let log_lambda = Float.log lambda
let nbuckets = 200

(* The float statistics sit in a float-only record, which OCaml stores
   flat: an observation updates them in place, where float fields of [t]
   itself would box on every store. *)
type moments = { mutable sum : float; mutable vmin : float; mutable vmax : float }
type t = { mutable count : int; m : moments; buckets : int array }

let create () =
  { count = 0; m = { sum = 0.0; vmin = infinity; vmax = neg_infinity };
    buckets = Array.make nbuckets 0 }

(* Inlined into [observe], and with it across modules, so that a sample
   is not boxed to reach it. *)
let[@inline] bucket_of v =
  if v < 1.0 then 0
  else min (nbuckets - 1) (1 + int_of_float (Float.log v /. log_lambda))

(* Geometric mean of a bucket's bounds: the representative reported for
   any percentile landing in it. *)
let bucket_mid i =
  if i = 0 then 0.5
  else Float.pow lambda (float_of_int i -. 0.5)

let[@inline] observe t v =
  if Float.is_finite v && v >= 0.0 then begin
    let m = t.m in
    t.count <- t.count + 1;
    m.sum <- m.sum +. v;
    if v < m.vmin then m.vmin <- v;
    if v > m.vmax then m.vmax <- v;
    let i = bucket_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end

let count t = t.count
let sum t = t.m.sum
let mean t = if t.count = 0 then 0.0 else t.m.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0.0 else t.m.vmin
let max_value t = if t.count = 0 then 0.0 else t.m.vmax

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    (* Rank of the percentile sample, 1-based, ceiling convention. *)
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
    in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < nbuckets do
      seen := !seen + t.buckets.(!i);
      incr i
    done;
    let v = bucket_mid (!i - 1) in
    Float.max t.m.vmin (Float.min t.m.vmax v)
  end

let p50 t = percentile t 50.0
let p95 t = percentile t 95.0
let p99 t = percentile t 99.0

let merge ~into src =
  if src.count > 0 then begin
    into.count <- into.count + src.count;
    into.m.sum <- into.m.sum +. src.m.sum;
    if src.m.vmin < into.m.vmin then into.m.vmin <- src.m.vmin;
    if src.m.vmax > into.m.vmax then into.m.vmax <- src.m.vmax;
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets
  end

type set = (string, t) Hashtbl.t

let create_set () : set = Hashtbl.create 8

let get set name =
  match Hashtbl.find_opt set name with
  | Some h -> h
  | None ->
      let h = create () in
      Hashtbl.add set name h;
      h

let rows set =
  Hashtbl.fold (fun name h acc -> if h.count > 0 then (name, h) :: acc else acc)
    set []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
