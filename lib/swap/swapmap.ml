type t = {
  nslots : int;
  used : bool array; (* index 0 unused; slots are 1..nslots *)
  bad : bool array; (* blacklisted: bad media, never handed out again *)
  mutable hint : int;
  mutable in_use : int;
  mutable usable : int; (* nslots minus blacklisted slots *)
  mutable bad_count : int;
}

let create ~nslots =
  if nslots < 1 then invalid_arg "Swapmap.create: nslots must be >= 1";
  {
    nslots;
    used = Array.make (nslots + 1) false;
    bad = Array.make (nslots + 1) false;
    hint = 1;
    in_use = 0;
    usable = nslots;
    bad_count = 0;
  }

let capacity t = t.nslots
let in_use t = t.in_use
let usable t = t.usable
let bad_count t = t.bad_count

let run_free_at t start n =
  start + n - 1 <= t.nslots
  &&
  let i = ref 0 in
  while !i < n && (not t.used.(start + !i)) && not t.bad.(start + !i) do
    incr i
  done;
  !i = n

let alloc t ~n =
  if n < 1 then invalid_arg "Swapmap.alloc: n must be >= 1";
  if t.in_use + n > t.usable then None
  else begin
    (* First fit, scanning from the hint and wrapping once; slot 0 is
       never handed out, so it stands for "not found". *)
    let found = ref 0 in
    let pos = ref t.hint in
    let scanned = ref 0 in
    while !found = 0 && !scanned <= t.nslots do
      if !pos + n - 1 > t.nslots then begin
        scanned := !scanned + (t.nslots - !pos + 1);
        pos := 1
      end
      else if run_free_at t !pos n then found := !pos
      else begin
        incr pos;
        incr scanned
      end
    done;
    let slot = !found in
    if slot = 0 then None
    else begin
      for i = slot to slot + n - 1 do
        t.used.(i) <- true
      done;
      t.in_use <- t.in_use + n;
      t.hint <- (if slot + n > t.nslots then 1 else slot + n);
      Some slot
    end
  end

let free t ~slot ~n =
  if slot < 1 || slot + n - 1 > t.nslots then
    invalid_arg "Swapmap.free: slot range out of bounds";
  for i = slot to slot + n - 1 do
    if not t.used.(i) then invalid_arg "Swapmap.free: slot not allocated";
    t.used.(i) <- false;
    (* A blacklisted slot leaves circulation the moment its current
       tenant releases it: it stays marked bad and stops counting as
       usable capacity. *)
    if t.bad.(i) then t.usable <- t.usable - 1
  done;
  t.in_use <- t.in_use - n

let mark_bad t ~slot =
  if slot < 1 || slot > t.nslots then
    invalid_arg "Swapmap.mark_bad: slot out of bounds";
  if not t.bad.(slot) then begin
    t.bad.(slot) <- true;
    t.bad_count <- t.bad_count + 1;
    (* If currently allocated, the owner still holds it; capacity shrinks
       when it is freed (see [free]).  A free slot shrinks capacity now. *)
    if not t.used.(slot) then t.usable <- t.usable - 1
  end

let is_allocated t ~slot = slot >= 1 && slot <= t.nslots && t.used.(slot)
let is_bad t ~slot = slot >= 1 && slot <= t.nslots && t.bad.(slot)
