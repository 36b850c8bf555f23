module Prot = Prot

type pte = {
  mutable page : Physmem.Page.t;
  mutable prot : Prot.t;
  mutable wired : bool;
}

(* A page's pv list: every (pmap, vpn) mapping it, newest first.  One
   block per mapping, where a list of pairs takes two. *)
type pv = Pv_nil | Pv of t * int * pv

and ctx = {
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  lifecycle : Sim.Lifecycle.t;
  pv : pv array;  (** by frame number *)
  mutable next_id : int;
}

and t = { ctx : ctx; id : int; ptes : (int, pte) Hashtbl.t }

let create_ctx ?lifecycle ~npages ~clock ~costs ~stats () =
  let lifecycle =
    match lifecycle with Some l -> l | None -> Sim.Lifecycle.create ()
  in
  { clock; costs; stats; lifecycle; pv = Array.make npages Pv_nil; next_id = 0 }

let create ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  { ctx; id; ptes = Hashtbl.create 64 }

let[@inline] charge t cost = Sim.Simclock.advance t.ctx.clock cost

let pv_of ctx (page : Physmem.Page.t) = ctx.pv.(page.id)

let pv_add ctx (page : Physmem.Page.t) pmap vpn =
  ctx.pv.(page.id) <- Pv (pmap, vpn, ctx.pv.(page.id))

(* Drop the entries for [pmap, vpn], keeping the others in order. *)
let rec pv_without pmap vpn = function
  | Pv_nil -> Pv_nil
  | Pv (m, v, rest) ->
      let rest = pv_without pmap vpn rest in
      if m == pmap && v = vpn then rest else Pv (m, v, rest)

let pv_remove ctx (page : Physmem.Page.t) pmap vpn =
  ctx.pv.(page.id) <- pv_without pmap vpn ctx.pv.(page.id)

let find t ~vpn = Hashtbl.find t.ptes vpn

let remove_pte t ~vpn pte =
  (* Dropping a translation to a frame whose fault-ahead premap was
     never touched resolves the premap as wasted. *)
  Physmem.note_unmapped ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle
    pte.page;
  pv_remove t.ctx pte.page t vpn;
  Hashtbl.remove t.ptes vpn;
  charge t t.ctx.costs.Sim.Cost_model.pmap_remove;
  t.ctx.stats.Sim.Stats.pmap_removes <- t.ctx.stats.Sim.Stats.pmap_removes + 1

let remove_one t ~vpn =
  match find t ~vpn with
  | pte -> remove_pte t ~vpn pte
  | exception Not_found -> ()

let add_pte t ~vpn ~page ~prot ~wired =
  Hashtbl.replace t.ptes vpn { page; prot; wired };
  pv_add t.ctx page t vpn

let enter t ~vpn ~page ~prot ~wired =
  (match find t ~vpn with
  | pte when pte.page == page ->
      pte.prot <- prot;
      pte.wired <- wired
  | old ->
      remove_pte t ~vpn old;
      add_pte t ~vpn ~page ~prot ~wired
  | exception Not_found -> add_pte t ~vpn ~page ~prot ~wired);
  charge t t.ctx.costs.Sim.Cost_model.pmap_enter;
  t.ctx.stats.Sim.Stats.pmap_enters <- t.ctx.stats.Sim.Stats.pmap_enters + 1

let remove_range t ~lo ~hi =
  (* Collect first: removing mutates the table we would be iterating. *)
  let doomed =
    Hashtbl.fold (fun vpn _ acc -> if vpn >= lo && vpn < hi then vpn :: acc else acc)
      t.ptes []
  in
  List.iter (fun vpn -> remove_one t ~vpn) doomed

let protect_range t ~lo ~hi ~prot =
  if Prot.equal prot Prot.none then remove_range t ~lo ~hi
  else
    Hashtbl.iter
      (fun vpn pte ->
        if vpn >= lo && vpn < hi then begin
          pte.prot <- prot;
          charge t t.ctx.costs.Sim.Cost_model.pmap_protect;
          t.ctx.stats.Sim.Stats.pmap_protects <-
            t.ctx.stats.Sim.Stats.pmap_protects + 1
        end)
      t.ptes

let restrict_range t ~lo ~hi ~prot =
  Hashtbl.iter
    (fun vpn pte ->
      if vpn >= lo && vpn < hi then begin
        pte.prot <- Prot.intersect pte.prot prot;
        charge t t.ctx.costs.Sim.Cost_model.pmap_protect;
        t.ctx.stats.Sim.Stats.pmap_protects <-
          t.ctx.stats.Sim.Stats.pmap_protects + 1
      end)
    t.ptes

let lookup t ~vpn = Hashtbl.find_opt t.ptes vpn
let resident_count t = Hashtbl.length t.ptes

let translations t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun vpn pte acc -> (vpn, pte) :: acc) t.ptes [])

let destroy t =
  let all = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.ptes [] in
  List.iter (fun vpn -> remove_one t ~vpn) all

let rec pv_fold f acc = function
  | Pv_nil -> acc
  | Pv (pmap, vpn, rest) -> pv_fold f (f acc pmap vpn) rest

let mappings_of_page ctx page =
  List.rev (pv_fold (fun acc pmap vpn -> (pmap, vpn) :: acc) [] (pv_of ctx page))

(* The walks below visit the pv list as it was on entry: a removal
   builds a new list and leaves the walked one intact. *)
let page_remove_all ctx page =
  pv_fold (fun () pmap vpn -> remove_one pmap ~vpn) () (pv_of ctx page)

let page_remove_unwired ctx page =
  pv_fold
    (fun () pmap vpn ->
      match find pmap ~vpn with
      | pte -> if not pte.wired then remove_pte pmap ~vpn pte
      | exception Not_found -> ())
    () (pv_of ctx page)

let page_protect_all ctx page ~prot =
  pv_fold
    (fun () pmap vpn ->
      match find pmap ~vpn with
      | pte ->
          pte.prot <- Prot.intersect pte.prot prot;
          Sim.Simclock.advance ctx.clock ctx.costs.Sim.Cost_model.pmap_protect;
          ctx.stats.Sim.Stats.pmap_protects <-
            ctx.stats.Sim.Stats.pmap_protects + 1
      | exception Not_found -> ())
    () (pv_of ctx page)

let is_referenced (page : Physmem.Page.t) = page.referenced
let clear_reference _ctx (page : Physmem.Page.t) = page.referenced <- false

let permits t ~vpn ~write =
  match find t ~vpn with
  | pte -> Prot.subsumes pte.prot (if write then Prot.rw else Prot.read)
  | exception Not_found -> false

let mark_access t ~vpn ~write =
  match find t ~vpn with
  | exception Not_found -> ()
  | pte ->
      (* A touch through an existing translation: if the frame was
         premapped by fault-ahead this is precisely a fault avoided. *)
      Physmem.note_soft_use ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle
        pte.page;
      pte.page.Physmem.Page.referenced <- true;
      if write then pte.page.Physmem.Page.dirty <- true
