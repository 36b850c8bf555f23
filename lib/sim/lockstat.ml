type mode = Read | Write

let known_classes =
  [ "map"; "amap"; "object"; "pagequeue"; "swap"; "ipc"; "pdaemon"; "oom" ]

type cls_stats = {
  c_name : string;
  c_spanned : bool;  (** emit "lock:<cls>" spans for holds of this class *)
  mutable c_instances : int;
  mutable c_acquires : int;
  mutable c_reads : int;
  mutable c_writes : int;
  c_hold : Histogram.t;
  c_read_hold : Histogram.t;
  c_write_hold : Histogram.t;
  c_by_subsys : (string, int ref * float ref) Hashtbl.t;
  mutable c_hold_total : float;
  mutable c_max_hold : float;
}

type lock = {
  l_cls : cls_stats;
  l_name : string;
  l_inst : int;  (** instance id within the class *)
  mutable l_depth : int;
  mutable l_mode : mode;
  mutable l_since : float;
  mutable l_subsys : string;
  mutable l_span : Span.span option;
  mutable l_recorded : bool;  (** pushed on the held stack at acquire *)
  mutable l_observed : bool;  (** announced to the contention observer *)
  mutable l_root : bool;  (** last acquire was a thread-context root *)
}

(* Contention observer events (the simulated-SMP hook): fired on the
   outermost acquire of an instance — before the hold's start timestamp
   is taken, so any wait the observer charges to the clock lands before
   the hold — and on the matching outermost release. *)
type contention_event =
  | Acquired of { cls : string; inst : int; mode : mode; root : bool }
  | Released of { cls : string; inst : int; mode : mode; root : bool }

(* The held stack mixes locks with context-break markers: an
   [acquire_root] pushes its entry with [h_barrier] set, and order edges
   are only drawn from the stack segment at or above the innermost
   barrier (the barrier entry itself included — the root lock legally
   orders before everything acquired under it). *)
type held_entry = { h_lock : lock; h_barrier : bool }

type t = {
  now : unit -> float;
  enabled : bool;
  mutable spans : Span.t option;
  classes : (string, cls_stats) Hashtbl.t;
  mutable class_order : string list;  (** registration order, reversed *)
  insts : (string * int, lock) Hashtbl.t;
  mutable held_stack : held_entry list;  (** innermost first *)
  edges : (string * string, int ref) Hashtbl.t;
  mutable window_max : float;
  mutable observer : (contention_event -> unit) option;
}

let create ?(enabled = false) ~now () =
  {
    now;
    enabled;
    spans = None;
    classes = Hashtbl.create 8;
    class_order = [];
    insts = Hashtbl.create 64;
    held_stack = [];
    edges = Hashtbl.create 16;
    window_max = 0.0;
    observer = None;
  }

let enabled t = t.enabled
let set_spans t v = t.spans <- v
let set_observer t v = t.observer <- v

let spans_on t =
  match t.spans with Some s -> Span.enabled s | None -> false

let active t = t.enabled || spans_on t

let get_class t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some c -> c
  | None ->
      let c =
        {
          c_name = cls;
          (* The page queues are manipulated once or more per page op;
             spanning those leaf holds would flood the ring with
             zero-duration entries and evict the spans that matter. *)
          c_spanned = cls <> "pagequeue";
          c_instances = 0;
          c_acquires = 0;
          c_reads = 0;
          c_writes = 0;
          c_hold = Histogram.create ();
          c_read_hold = Histogram.create ();
          c_write_hold = Histogram.create ();
          c_by_subsys = Hashtbl.create 8;
          c_hold_total = 0.0;
          c_max_hold = 0.0;
        }
      in
      Hashtbl.replace t.classes cls c;
      t.class_order <- cls :: t.class_order;
      c

let register t ~cls name =
  let c = get_class t cls in
  c.c_instances <- c.c_instances + 1;
  {
    l_cls = c;
    l_name = name;
    l_inst = c.c_instances;
    l_depth = 0;
    l_mode = Write;
    l_since = 0.0;
    l_subsys = "none";
    l_span = None;
    l_recorded = false;
    l_observed = false;
    l_root = false;
  }

let instance t ~cls ~id =
  match Hashtbl.find_opt t.insts (cls, id) with
  | Some l -> l
  | None ->
      let l = register t ~cls (cls ^ "#" ^ string_of_int id) in
      Hashtbl.replace t.insts (cls, id) l;
      l

(* Spans opened for lock holds are named "lock:<class>"; the attribution
   walk skips them so a hold is charged to the innermost *kernel* work
   (fault, pdaemon, send...), not to another lock. *)
let lock_span_prefix = "lock:"

let is_lock_span (sp : Span.span) =
  let n = sp.Span.sname in
  String.length n >= 5 && String.sub n 0 5 = lock_span_prefix

let attribution t =
  match t.spans with
  | None -> "none"
  | Some sp -> (
      match Span.innermost sp ~skip:is_lock_span () with
      | Some s -> s.Span.ssubsys
      | None -> "none")

let bump_edge t ~from ~onto =
  if from <> onto then
    match Hashtbl.find_opt t.edges (from, onto) with
    | Some r -> incr r
    | None -> Hashtbl.replace t.edges (from, onto) (ref 1)

(* Draw held-class -> new-class edges from the current context segment:
   every entry down to and including the innermost barrier. *)
let record_edges t lock =
  let onto = lock.l_cls.c_name in
  let rec go = function
    | [] -> ()
    | { h_lock; h_barrier } :: rest ->
        bump_edge t ~from:h_lock.l_cls.c_name ~onto;
        if not h_barrier then go rest
  in
  go t.held_stack

let do_acquire t lock ~mode ~root =
  if lock.l_depth > 0 then lock.l_depth <- lock.l_depth + 1
  else if active t then begin
    lock.l_depth <- 1;
    lock.l_mode <- mode;
    lock.l_root <- root;
    (* The observer fires before the hold timestamp is taken: contention
       wait it charges to the clock extends the wait, not the hold. *)
    (match t.observer with
    | Some f ->
        lock.l_observed <- true;
        f
          (Acquired
             { cls = lock.l_cls.c_name; inst = lock.l_inst; mode; root })
    | None -> lock.l_observed <- false);
    lock.l_since <- t.now ();
    lock.l_subsys <- (if t.enabled then attribution t else "none");
    (match t.spans with
    | Some sp when lock.l_cls.c_spanned ->
        lock.l_span <-
          Some
            (Span.start sp ~subsys:lock.l_cls.c_name ~ts:lock.l_since
               (lock_span_prefix ^ lock.l_cls.c_name))
    | _ -> lock.l_span <- None);
    if t.enabled then begin
      if not root then record_edges t lock;
      t.held_stack <- { h_lock = lock; h_barrier = root } :: t.held_stack;
      lock.l_recorded <- true;
      let c = lock.l_cls in
      c.c_acquires <- c.c_acquires + 1;
      match mode with
      | Read -> c.c_reads <- c.c_reads + 1
      | Write -> c.c_writes <- c.c_writes + 1
    end
    else lock.l_recorded <- false
  end

let acquire t lock ~mode = do_acquire t lock ~mode ~root:false
let acquire_root t lock ~mode = do_acquire t lock ~mode ~root:true

let remove_held t lock =
  let rec go = function
    | [] -> []
    | e :: rest -> if e.h_lock == lock then rest else e :: go rest
  in
  t.held_stack <- go t.held_stack

let release t lock =
  if lock.l_depth > 1 then lock.l_depth <- lock.l_depth - 1
  else if lock.l_depth = 1 then begin
    lock.l_depth <- 0;
    let now = t.now () in
    let held_us = now -. lock.l_since in
    if lock.l_observed then begin
      lock.l_observed <- false;
      match t.observer with
      | Some f ->
          f
            (Released
               {
                 cls = lock.l_cls.c_name;
                 inst = lock.l_inst;
                 mode = lock.l_mode;
                 root = lock.l_root;
               })
      | None -> ()
    end;
    (match lock.l_span with
    | Some sp ->
        lock.l_span <- None;
        (match t.spans with
        | Some spc ->
            Span.finish_with spc sp ~ts:now (fun () ->
                [ ("class", lock.l_cls.c_name); ("instance", lock.l_name) ])
        | None -> ())
    | None -> ());
    if lock.l_recorded then begin
      lock.l_recorded <- false;
      remove_held t lock;
      let c = lock.l_cls in
      Histogram.observe c.c_hold held_us;
      (match lock.l_mode with
      | Read -> Histogram.observe c.c_read_hold held_us
      | Write -> Histogram.observe c.c_write_hold held_us);
      c.c_hold_total <- c.c_hold_total +. held_us;
      if held_us > c.c_max_hold then c.c_max_hold <- held_us;
      if held_us > t.window_max then t.window_max <- held_us;
      (match Hashtbl.find_opt c.c_by_subsys lock.l_subsys with
      | Some (n, tot) ->
          incr n;
          tot := !tot +. held_us
      | None ->
          Hashtbl.replace c.c_by_subsys lock.l_subsys (ref 1, ref held_us))
    end
  end

let held t =
  List.map
    (fun e -> (e.h_lock.l_cls.c_name, e.h_lock.l_name))
    t.held_stack

(* {1 Aggregated views} *)

type class_view = {
  cv_cls : string;
  cv_instances : int;
  cv_acquires : int;
  cv_reads : int;
  cv_writes : int;
  cv_hold : Histogram.t;
  cv_read_hold : Histogram.t;
  cv_write_hold : Histogram.t;
  cv_by_subsys : (string * int * float) list;
  cv_max_hold_us : float;
}

let classes_in_order t =
  let registered = List.rev t.class_order in
  let canonical = List.filter (fun c -> List.mem c registered) known_classes in
  let extra = List.filter (fun c -> not (List.mem c known_classes)) registered in
  canonical @ extra

let view_class c =
  {
    cv_cls = c.c_name;
    cv_instances = c.c_instances;
    cv_acquires = c.c_acquires;
    cv_reads = c.c_reads;
    cv_writes = c.c_writes;
    cv_hold = c.c_hold;
    cv_read_hold = c.c_read_hold;
    cv_write_hold = c.c_write_hold;
    cv_by_subsys =
      Hashtbl.fold
        (fun subsys (n, tot) acc -> (subsys, !n, !tot) :: acc)
        c.c_by_subsys []
      |> List.sort compare;
    cv_max_hold_us = c.c_max_hold;
  }

let views t =
  List.map (fun cls -> view_class (Hashtbl.find t.classes cls))
    (classes_in_order t)

let total_acquires t =
  Hashtbl.fold (fun _ c acc -> acc + c.c_acquires) t.classes 0

let class_hold_us t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some c -> c.c_hold_total
  | None -> 0.0

let take_window_max_us t =
  let v = t.window_max in
  t.window_max <- 0.0;
  v

(* {1 Lock-order auditing} *)

let order_edges t =
  Hashtbl.fold (fun (a, b) n acc -> (a, b, !n) :: acc) t.edges []
  |> List.sort compare

let cycles t =
  let adj = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (a, b) _ ->
      let cur = try Hashtbl.find adj a with Not_found -> [] in
      Hashtbl.replace adj a (b :: cur))
    t.edges;
  let found = Hashtbl.create 8 in
  let out = ref [] in
  (* DFS bounded by the path-uniqueness cut: class graphs are tiny. *)
  let rec dfs path node =
    (* [path] is innermost-first and includes [node]. *)
    let next = try Hashtbl.find adj node with Not_found -> [] in
    List.iter
      (fun succ ->
        if List.mem succ path then begin
          (* Cycle: succ -> ... -> node -> succ.  Recover the segment in
             traversal order from the reversed path. *)
          let rec after = function
            | [] -> []
            | x :: rest -> if x = succ then x :: rest else after rest
          in
          let cyc = after (List.rev path) in
          let n = List.length cyc in
          let arr = Array.of_list cyc in
          let best = ref 0 in
          for i = 1 to n - 1 do
            if arr.(i) < arr.(!best) then best := i
          done;
          let norm = List.init n (fun i -> arr.((!best + i) mod n)) in
          let key = String.concat ";" norm in
          if not (Hashtbl.mem found key) then begin
            Hashtbl.replace found key ();
            out := norm :: !out
          end
        end
        else dfs (succ :: path) succ)
      next
  in
  Hashtbl.iter (fun node _ -> dfs [ node ] node) adj;
  List.sort compare !out

let merge ~into src =
  Hashtbl.iter
    (fun cls c ->
      let d = get_class into cls in
      d.c_instances <- d.c_instances + c.c_instances;
      d.c_acquires <- d.c_acquires + c.c_acquires;
      d.c_reads <- d.c_reads + c.c_reads;
      d.c_writes <- d.c_writes + c.c_writes;
      Histogram.merge ~into:d.c_hold c.c_hold;
      Histogram.merge ~into:d.c_read_hold c.c_read_hold;
      Histogram.merge ~into:d.c_write_hold c.c_write_hold;
      Hashtbl.iter
        (fun subsys (n, tot) ->
          match Hashtbl.find_opt d.c_by_subsys subsys with
          | Some (dn, dtot) ->
              dn := !dn + !n;
              dtot := !dtot +. !tot
          | None -> Hashtbl.replace d.c_by_subsys subsys (ref !n, ref !tot))
        c.c_by_subsys;
      d.c_hold_total <- d.c_hold_total +. c.c_hold_total;
      if c.c_max_hold > d.c_max_hold then d.c_max_hold <- c.c_max_hold)
    src.classes;
  Hashtbl.iter
    (fun (a, b) n ->
      match Hashtbl.find_opt into.edges (a, b) with
      | Some r -> r := !r + !n
      | None -> Hashtbl.replace into.edges (a, b) (ref !n))
    src.edges
