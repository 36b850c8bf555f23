type t = { mutable now : float; mutable tick : (unit -> unit) option }

let create () = { now = 0.0; tick = None }
let now t = t.now

let advance t us =
  if not (Float.is_finite us) || us < 0.0 then
    invalid_arg "Simclock.advance: negative or non-finite duration";
  t.now <- t.now +. us;
  match t.tick with None -> () | Some f -> f ()

let set_on_advance t f = t.tick <- Some f
