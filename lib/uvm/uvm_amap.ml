type t = {
  id : int;
  mutable refs : int;
  mutable nslots : int;
  mutable anons : Uvm_anon.t option array;
  mutable ppref : int array option;
  mutable nused : int;
  mutable shared : bool;
  mutable lockh : Sim.Lockstat.lock option;
}

let create sys ~nslots =
  if nslots < 1 then invalid_arg "Uvm_amap.create: nslots must be >= 1";
  let stats = Uvm_sys.stats sys in
  stats.Sim.Stats.amaps_allocated <- stats.Sim.Stats.amaps_allocated + 1;
  Uvm_sys.charge_struct_alloc sys;
  {
    id = Uvm_sys.fresh_id sys;
    refs = 1;
    nslots;
    anons = Array.make nslots None;
    ppref = None;
    nused = 0;
    shared = false;
    lockh = None;
  }

let lock_handle ls t =
  match t.lockh with
  | Some l -> l
  | None ->
      let l = Sim.Lockstat.register ls ~cls:"amap" ("amap#" ^ string_of_int t.id) in
      t.lockh <- Some l;
      l

let check_slot t slot =
  if slot < 0 || slot >= t.nslots then
    invalid_arg (Printf.sprintf "Uvm_amap: slot %d out of [0,%d)" slot t.nslots)

let lookup t ~slot =
  check_slot t slot;
  t.anons.(slot)

let add sys t ~slot anon =
  check_slot t slot;
  ignore sys;
  (match t.anons.(slot) with
  | Some _ -> invalid_arg "Uvm_amap.add: slot occupied"
  | None -> ());
  t.anons.(slot) <- Some anon;
  t.nused <- t.nused + 1

let clear_slot sys t ~slot =
  check_slot t slot;
  match t.anons.(slot) with
  | None -> ()
  | Some anon ->
      Uvm_anon.unref sys anon;
      t.anons.(slot) <- None;
      t.nused <- t.nused - 1

let replace sys t ~slot anon =
  check_slot t slot;
  clear_slot sys t ~slot;
  add sys t ~slot anon

(* While [ppref = None] every reference covers every slot, so per-slot
   counts all equal [refs]. *)
let establish_ppref t =
  match t.ppref with
  | Some _ -> ()
  | None -> t.ppref <- Some (Array.make t.nslots t.refs)

let covers_whole t ~slotoff ~len = slotoff = 0 && len = t.nslots

let copy sys src ~slotoff ~len =
  if slotoff < 0 || len < 1 || slotoff + len > src.nslots then
    invalid_arg "Uvm_amap.copy: bad range";
  let dst = create sys ~nslots:len in
  for i = 0 to len - 1 do
    match src.anons.(slotoff + i) with
    | None -> ()
    | Some anon ->
        Uvm_anon.ref_ anon;
        dst.anons.(i) <- Some anon;
        dst.nused <- dst.nused + 1
  done;
  dst

let splitref t =
  establish_ppref t;
  t.refs <- t.refs + 1

let ref_range t ~slotoff ~len =
  if slotoff < 0 || len < 1 || slotoff + len > t.nslots then
    invalid_arg "Uvm_amap.ref_range: bad range";
  if covers_whole t ~slotoff ~len && t.ppref = None then t.refs <- t.refs + 1
  else begin
    establish_ppref t;
    t.refs <- t.refs + 1;
    let pp = Option.get t.ppref in
    for i = slotoff to slotoff + len - 1 do
      pp.(i) <- pp.(i) + 1
    done
  end

let release_all sys t =
  for slot = 0 to t.nslots - 1 do
    clear_slot sys t ~slot
  done;
  let stats = Uvm_sys.stats sys in
  stats.Sim.Stats.amaps_freed <- stats.Sim.Stats.amaps_freed + 1

let unref_range sys t ~slotoff ~len =
  if t.refs <= 0 then invalid_arg "Uvm_amap.unref_range: no references";
  if slotoff < 0 || len < 1 || slotoff + len > t.nslots then
    invalid_arg "Uvm_amap.unref_range: bad range";
  if covers_whole t ~slotoff ~len && t.ppref = None then begin
    t.refs <- t.refs - 1;
    if t.refs = 0 then release_all sys t
  end
  else begin
    establish_ppref t;
    t.refs <- t.refs - 1;
    if t.refs = 0 then release_all sys t
    else begin
      let pp = Option.get t.ppref in
      for i = slotoff to slotoff + len - 1 do
        if pp.(i) <= 0 then invalid_arg "Uvm_amap.unref_range: ppref underflow";
        pp.(i) <- pp.(i) - 1;
        if pp.(i) = 0 then clear_slot sys t ~slot:i
      done
    end
  end

let extend t ~by =
  if by < 1 then invalid_arg "Uvm_amap.extend: by must be >= 1";
  if t.refs <> 1 || t.shared || t.ppref <> None then
    invalid_arg "Uvm_amap.extend: amap is shared or partially referenced";
  let fresh = Array.make (t.nslots + by) None in
  Array.blit t.anons 0 fresh 0 t.nslots;
  t.anons <- fresh;
  t.nslots <- t.nslots + by

let slots_used t = t.nused

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (t.refs >= 0) "refs negative" in
  let used = Array.fold_left (fun n a -> if a = None then n else n + 1) 0 t.anons in
  let* () =
    check (used = t.nused)
      (Printf.sprintf "nused=%d but %d slots occupied" t.nused used)
  in
  let* () =
    check
      (Array.for_all
         (function Some a -> a.Uvm_anon.refs > 0 | None -> true)
         t.anons)
      "slot holds dead anon"
  in
  match t.ppref with
  | None -> Ok ()
  | Some pp ->
      let* () =
        check (Array.length pp = t.nslots) "ppref length mismatch"
      in
      check (Array.for_all (fun c -> c >= 0) pp) "negative ppref"

let pp ppf t =
  Format.fprintf ppf "amap#%d{refs=%d nslots=%d nused=%d ppref=%b}" t.id t.refs
    t.nslots t.nused (t.ppref <> None)
