type t = { r : bool; w : bool; x : bool }

let none = { r = false; w = false; x = false }
let read = { r = true; w = false; x = false }
let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }
let rwx = { r = true; w = true; x = true }

let subsumes granted wanted =
  (granted.r || not wanted.r)
  && (granted.w || not wanted.w)
  && (granted.x || not wanted.x)

(* The eight protections, shared: [intersect] and [remove_write] return
   one of them rather than a fresh record. *)
let shared =
  Array.init 8 (fun i -> { r = i land 4 <> 0; w = i land 2 <> 0; x = i land 1 <> 0 })

let make ~r ~w ~x =
  shared.((if r then 4 else 0) lor (if w then 2 else 0) lor if x then 1 else 0)

let intersect a b = make ~r:(a.r && b.r) ~w:(a.w && b.w) ~x:(a.x && b.x)
let remove_write t = if t.w then make ~r:t.r ~w:false ~x:t.x else t
let equal a b = a = b

let to_string t =
  Printf.sprintf "%c%c%c"
    (if t.r then 'r' else '-')
    (if t.w then 'w' else '-')
    (if t.x then 'x' else '-')
