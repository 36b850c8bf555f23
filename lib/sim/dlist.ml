type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
}

and 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
}

let create () = { head = None; tail = None; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let value n = n.v
let on_list n t = match n.owner with Some o -> o == t | None -> false

let push_head t v =
  let n = { v; prev = None; next = t.head; owner = Some t } in
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n;
  t.len <- t.len + 1;
  n

let push_tail t v =
  let n = { v; prev = t.tail; next = None; owner = Some t } in
  (match t.tail with Some l -> l.next <- Some n | None -> t.head <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1;
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

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        (* capture next before [f] possibly unlinks [n] *)
        let nxt = n.next in
        f n.v;
        go nxt
  in
  go t.head

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some n ->
        let nxt = n.next in
        go (f acc n.v) nxt
  in
  go acc t.head

let exists p t = fold (fun acc v -> acc || p v) false t
let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)
