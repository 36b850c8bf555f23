(* Every node carries its own [Some] box ([link]) and every list its own
   ([self]), built once when it is made: linking, unlinking and relinking
   a node allocate nothing. *)
type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
  mutable link : 'a node option;  (** [Some] of this node, set once *)
}

and 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
  mutable self : 'a t option;  (** [Some] of this list, set once *)
}

(* The self boxes are set after the record is built: a [let rec] would
   allocate a dummy block first and copy it. *)
let create () =
  let t = { head = None; tail = None; len = 0; self = None } in
  t.self <- Some t;
  t

let length t = t.len
let is_empty t = t.len = 0
let value n = n.v
let on_list n t = match n.owner with Some o -> o == t | None -> false
let linked n = n.owner <> None

let node v =
  let n = { v; prev = None; next = None; owner = None; link = None } in
  n.link <- Some n;
  n

let check_unlinked n =
  if linked n then invalid_arg "Dlist: node already on a list"

let prepend t n =
  check_unlinked n;
  n.next <- t.head;
  n.owner <- t.self;
  (match t.head with Some h -> h.prev <- n.link | None -> t.tail <- n.link);
  t.head <- n.link;
  t.len <- t.len + 1

let append t n =
  check_unlinked n;
  n.prev <- t.tail;
  n.owner <- t.self;
  (match t.tail with Some l -> l.next <- n.link | None -> t.head <- n.link);
  t.tail <- n.link;
  t.len <- t.len + 1

let push_head t v =
  let n = node v in
  prepend t n;
  n

let push_tail t v =
  let n = node v in
  append t n;
  n

let remove t n =
  if not (on_list n t) then invalid_arg "Dlist.remove: node not on this list";
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.owner <- None;
  t.len <- t.len - 1

let pop_head t =
  match t.head with
  | None -> None
  | Some n ->
      remove t n;
      Some n.v

let pop_tail t =
  match t.tail with
  | None -> None
  | Some n ->
      remove t n;
      Some n.v

let peek_head t = Option.map value t.head
let head_node t = t.head
let next_node n = n.next

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some n ->
        let nxt = n.next in
        go (f acc n.v) nxt
  in
  go acc t.head

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)
