type contents = Zero | Data of bytes

(* Word-wise zero scan, four words per step, then a byte tail.  The
   int64 loads and their [logor] stay unboxed when compared with a
   literal, and the loop's refs live in registers: the scan allocates
   nothing. *)
let is_zero b =
  let n = Bytes.length b in
  let blocks = n land lnot 31 in
  let i = ref 0 in
  while
    !i < blocks
    && Int64.logor
         (Int64.logor (Bytes.get_int64_ne b !i) (Bytes.get_int64_ne b (!i + 8)))
         (Int64.logor
            (Bytes.get_int64_ne b (!i + 16))
            (Bytes.get_int64_ne b (!i + 24)))
       = 0L
  do
    i := !i + 32
  done;
  if !i < blocks then false
  else begin
    while !i < n && Bytes.get b !i = '\000' do
      incr i
    done;
    !i >= n
  end

let capture b = if is_zero b then Zero else Data (Bytes.copy b)

type t = {
  map : Swapmap.t;
  disk : Sim.Disk.t;
  page_size : int;
  store : contents array;
      (** indexed by device slot (1..nslots, like the map); [absent] where
          the slot holds no data *)
  stats : Sim.Stats.t;
}

(* The store's empty cell.  It is told apart by physical equality, so no
   stored page can be taken for it. *)
let absent = Data (Bytes.create 0)

let create ~nslots ~page_size ~clock ~costs ~stats () =
  {
    map = Swapmap.create ~nslots;
    disk = Sim.Disk.create ~clock ~costs ~stats;
    page_size;
    store = Array.make (nslots + 1) absent;
    stats;
  }

let slots_in_use t = Swapmap.in_use t.map
let slots_usable t = Swapmap.usable t.map
let is_bad_slot t ~slot = Swapmap.is_bad t.map ~slot
let is_allocated_slot t ~slot = Swapmap.is_allocated t.map ~slot
let disk t = t.disk

let alloc_slots t ~n =
  let r = Swapmap.alloc t.map ~n in
  (match r with
  | Some _ ->
      t.stats.Sim.Stats.swap_slots_allocated <-
        t.stats.Sim.Stats.swap_slots_allocated + n
  | None -> ());
  r

let free_slots t ~slot ~n =
  Swapmap.free t.map ~slot ~n;
  Array.fill t.store slot n absent;
  t.stats.Sim.Stats.swap_slots_freed <- t.stats.Sim.Stats.swap_slots_freed + n

let mark_bad t ~slot =
  if Swapmap.is_bad t.map ~slot then false
  else begin
    Swapmap.mark_bad t.map ~slot;
    (* Whatever the bad slot held is unreadable now. *)
    t.store.(slot) <- absent;
    t.stats.Sim.Stats.bad_slots <- t.stats.Sim.Stats.bad_slots + 1;
    true
  end

let has_data t ~slot =
  slot >= 1 && slot < Array.length t.store && t.store.(slot) != absent

(* What [slot] stores; [fn] names the caller in the error. *)
let stored t ~slot fn =
  if has_data t ~slot then t.store.(slot)
  else invalid_arg (fn ^ ": slot holds no data")

let restore t c ~(dst : Physmem.Page.t) =
  (match c with
  | Zero -> Bytes.fill dst.data 0 t.page_size '\000'
  | Data d -> Bytes.blit d 0 dst.data 0 t.page_size);
  dst.dirty <- false

(* The disk decides the fate of the transfer before any bytes move: a
   failed write leaves the pages dirty and the store untouched, so the
   caller can retry or reassign without losing data. *)
let write_cluster t ~slot ~pages ~n =
  if n < 1 then invalid_arg "Swapdev.write_cluster: no pages";
  for s = slot to slot + n - 1 do
    if not (Swapmap.is_allocated t.map ~slot:s) then
      invalid_arg "Swapdev.write_cluster: slot not allocated"
  done;
  match Sim.Disk.write t.disk ~slot ~npages:n with
  | Error _ as e -> e
  | Ok () ->
      for i = 0 to n - 1 do
        let page : Physmem.Page.t = pages.(i) in
        let c = capture page.data in
        (match c with
        | Zero ->
            t.stats.Sim.Stats.swap_zero_pageouts <-
              t.stats.Sim.Stats.swap_zero_pageouts + 1
        | Data _ -> ());
        t.store.(slot + i) <- c;
        page.dirty <- false
      done;
      t.stats.Sim.Stats.pageouts <- t.stats.Sim.Stats.pageouts + n;
      Ok ()

let read_slot t ~slot ~dst =
  let c = stored t ~slot "Swapdev.read_slot" in
  match Sim.Disk.read t.disk ~slot ~npages:1 with
  | Error _ as e -> e
  | Ok () ->
      restore t c ~dst;
      t.stats.Sim.Stats.pageins <- t.stats.Sim.Stats.pageins + 1;
      Ok ()

let read_cluster t ~slot ~dsts =
  let n = List.length dsts in
  if n = 0 then invalid_arg "Swapdev.read_cluster: no pages";
  for s = slot to slot + n - 1 do
    ignore (stored t ~slot:s "Swapdev.read_cluster" : contents)
  done;
  match Sim.Disk.read t.disk ~slot ~npages:n with
  | Error _ as e -> e
  | Ok () ->
      List.iteri (fun i dst -> restore t t.store.(slot + i) ~dst) dsts;
      t.stats.Sim.Stats.pageins <- t.stats.Sim.Stats.pageins + n;
      Ok ()

(* Raw slot transfers for the tier layer: swapcache fills/hits and
   cross-device drain migration move contents without touching page
   state or the pagein/pageout counters — those flows have their own
   accounting.  Stored contents are never mutated, so both directions
   share the value instead of copying it. *)
let read_raw t ~slot =
  let c = stored t ~slot "Swapdev.read_raw" in
  match Sim.Disk.read t.disk ~slot ~npages:1 with
  | Error e -> Error e
  | Ok () -> Ok c

let write_raw t ~slot c =
  if not (Swapmap.is_allocated t.map ~slot) then
    invalid_arg "Swapdev.write_raw: slot not allocated";
  match Sim.Disk.write t.disk ~slot ~npages:1 with
  | Error _ as e -> e
  | Ok () ->
      t.store.(slot) <- c;
      Ok ()
