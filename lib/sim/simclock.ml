type stamp = { mutable at : float }

(* The time is a stamp of its own, so an advance updates it in place.
   As a field of [t], beside the hook, every store would box a fresh
   float. *)
type t = { time : stamp; mutable tick : (unit -> unit) option }

let create () = { time = { at = 0.0 }; tick = None }
let[@inline] now t = t.time.at

let bad_duration () =
  invalid_arg "Simclock.advance: negative or non-finite duration"

(* Inlined, so that where cross-module inlining is on a caller's cost
   stays unboxed: a float passed to a function that is not inlined is
   boxed.  [us < infinity] fails for nan and infinity alike. *)
let[@inline] advance t us =
  if us >= 0.0 && us < Float.infinity then begin
    let time = t.time in
    time.at <- time.at +. us;
    match t.tick with None -> () | Some f -> f ()
  end
  else bad_duration ()

let set_on_advance t f = t.tick <- Some f
