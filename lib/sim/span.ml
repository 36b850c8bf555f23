(* Causal spans: request-scoped trace trees over simulated time, and the
   simulator's only kernel event source.

   The simulator is sequential, so span activation is strictly LIFO: a
   fault span opens, the pagein it triggers opens inside it, the drain
   the pagein's allocation forces opens inside that.  A plain stack is
   therefore enough to reconstruct the whole causal tree — no context
   threading through the kernels, just one [start]/[finish] pair per
   instrumented cut point.  Latency histograms are a view over the same
   stream: each finished span feeds the histogram of its name. *)

type span = {
  sid : int;  (* unique per collector, > 0; the dummy is 0 *)
  strace : int;  (* root request id shared by the whole tree *)
  sparent : int;  (* 0 = root *)
  sname : string;
  ssubsys : string;
  sts : float;
  mutable sdur : float;  (* -1.0 while open *)
  mutable sdetail : (string * string) list;
}

let dummy =
  {
    sid = 0;
    strace = 0;
    sparent = 0;
    sname = "";
    ssubsys = "";
    sts = 0.0;
    sdur = 0.0;
    sdetail = [];
  }

type t = {
  mutable on : bool;
  mutable next_id : int;
  mutable next_trace : int;
  mutable stack : span list;  (* innermost (most recently started) first *)
  buf : span array;  (* finished spans, ring *)
  mutable next : int;
  mutable count : int;
  mutable total : int;
  lat : Histogram.set;  (* per span name, fed at finish; survives [clear] *)
}

let create ?(capacity = 4096) ?(enabled = false) () =
  if capacity < 1 then invalid_arg "Span.create: capacity must be >= 1";
  {
    on = enabled;
    next_id = 1;
    next_trace = 1;
    stack = [];
    buf = Array.make capacity dummy;
    next = 0;
    count = 0;
    total = 0;
    lat = Histogram.create_set ();
  }

let enabled t = t.on
let set_enabled t b = t.on <- b

let start t ~subsys ~ts name =
  if not t.on then dummy
  else begin
    let sid = t.next_id in
    t.next_id <- sid + 1;
    let strace, sparent =
      match t.stack with
      | parent :: _ -> (parent.strace, parent.sid)
      | [] ->
          (* A root span begins a fresh trace: every request (or bare
             fault, when nothing wraps it) gets its own trace id. *)
          let tr = t.next_trace in
          t.next_trace <- tr + 1;
          (tr, 0)
    in
    let sp =
      {
        sid;
        strace;
        sparent;
        sname = name;
        ssubsys = subsys;
        sts = ts;
        sdur = -1.0;
        sdetail = [];
      }
    in
    t.stack <- sp :: t.stack;
    sp
  end

let push_finished t sp =
  let cap = Array.length t.buf in
  t.buf.(t.next) <- sp;
  t.next <- (t.next + 1) mod cap;
  if t.count < cap then t.count <- t.count + 1;
  t.total <- t.total + 1;
  Histogram.observe (Histogram.get t.lat sp.sname) sp.sdur

let live sp = sp != dummy && sp.sdur < 0.0

let close sp ~ts ~detail =
  sp.sdur <- ts -. sp.sts;
  if detail <> [] then sp.sdetail <- detail

(* Finishing a span that is not the innermost open one means some
   intermediate scope leaked (an exception skipped a [finish]).  Rather
   than corrupt the tree, close the intermediates at the same
   timestamp: their durations stay truthful up to the point control
   left them. *)
let finish t sp ~ts ?(detail = []) () =
  if live sp then begin
    let rec pop = function
      | [] -> []  (* [clear] ran between start and finish: drop it *)
      | top :: rest when top == sp ->
          close sp ~ts ~detail;
          push_finished t sp;
          rest
      | top :: rest ->
          close top ~ts ~detail:[];
          push_finished t top;
          pop rest
    in
    t.stack <- pop t.stack
  end

(* The detail thunk runs only for a live span, so an untraced run
   builds no detail strings at all. *)
let finish_with t sp ~ts detail =
  if live sp then
    finish t sp ~ts ~detail:(detail ()) ()

let point t ~subsys ~ts name detail =
  if t.on then finish_with t (start t ~subsys ~ts name) ~ts detail

let latencies t = Histogram.rows t.lat

let spans t =
  let cap = Array.length t.buf in
  let first = (t.next - t.count + cap) mod cap in
  List.init t.count (fun i -> t.buf.((first + i) mod cap))

let open_spans t = List.rev t.stack

let innermost t ?(skip = fun _ -> false) () =
  let rec go = function
    | [] -> None
    | sp :: rest -> if skip sp then go rest else Some sp
  in
  go t.stack
let take_trace t ~trace = List.filter (fun sp -> sp.strace = trace) (spans t)
let recorded t = t.total
let dropped t = t.total - t.count

let clear t =
  t.stack <- [];
  t.next <- 0;
  t.count <- 0;
  t.total <- 0

(* Critical-path decomposition: each span's self time is its duration
   minus the time covered by its direct children, attributed to the
   span's subsystem.  Summed over one trace the children's durations
   telescope away, so the per-subsystem contributions add up to exactly
   the root's duration — the property the serve breakdown relies on. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.sparent <> 0 && sp.sdur >= 0.0 then
        let prev =
          Option.value (Hashtbl.find_opt child_time sp.sparent) ~default:0.0
        in
        Hashtbl.replace child_time sp.sparent (prev +. sp.sdur))
    spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
      if sp.sdur >= 0.0 then begin
        let covered =
          Option.value (Hashtbl.find_opt child_time sp.sid) ~default:0.0
        in
        let self = Float.max 0.0 (sp.sdur -. covered) in
        (match Hashtbl.find_opt acc sp.ssubsys with
        | None ->
            order := sp.ssubsys :: !order;
            Hashtbl.add acc sp.ssubsys self
        | Some prev -> Hashtbl.replace acc sp.ssubsys (prev +. self))
      end)
    spans;
  List.rev_map (fun k -> (k, Hashtbl.find acc k)) !order

(* Folded-stack flamegraph lines: one "root;child;leaf" path per span,
   weighted by self time.  Because every span contributes exactly its
   duration minus its children's, the values over a complete trace sum
   to the root's duration — the telescoping CI checks rely on it. *)
let fold_paths spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.sid sp) spans;
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.sparent <> 0 && sp.sdur >= 0.0 then
        let prev =
          Option.value (Hashtbl.find_opt child_time sp.sparent) ~default:0.0
        in
        Hashtbl.replace child_time sp.sparent (prev +. sp.sdur))
    spans;
  let acc = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.sdur >= 0.0 then begin
        let covered =
          Option.value (Hashtbl.find_opt child_time sp.sid) ~default:0.0
        in
        let self = Float.max 0.0 (sp.sdur -. covered) in
        if self > 0.0 then begin
          let rec path sp tail =
            let tail = sp.sname :: tail in
            if sp.sparent = 0 then tail
            else
              match Hashtbl.find_opt by_id sp.sparent with
              | Some p -> path p tail
              | None -> tail  (* parent lost to ring wraparound *)
          in
          let key = String.concat ";" (path sp []) in
          let prev = Option.value (Hashtbl.find_opt acc key) ~default:0.0 in
          Hashtbl.replace acc key (prev +. self)
        end
      end)
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare
