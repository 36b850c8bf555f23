(** BSD VM memory objects, with shadow-object chains (paper §5.1).

    A stand-alone structure owned by the VM system.  Copy-on-write is
    expressed by {e shadow objects}: anonymous objects holding the modified
    pages of the object they shadow.  Page lookup walks the chain; the
    complex {!collapse} operation tries to shorten chains and reclaim
    redundant pages after the fact — it cannot prevent the leaks from
    forming (§5.3), which the leak audit in the facade demonstrates.

    A vnode-backed object additionally drags along the separately-allocated
    pager structures ([vm_pager] + [vn_pager]) and a pager hash-table entry
    (paper Figure 4); we charge those allocations and probes. *)

type kind = Vnode of Vfs.Vnode.t | Anon

type t = {
  id : int;
  mutable refs : int;  (** map references + references from shadowing objects *)
  pages : (int, Physmem.Page.t) Hashtbl.t;
  mutable shadow : t option;  (** the object this one shadows *)
  mutable shadow_offset : int;  (** our offset o maps to shadow offset o + shadow_offset *)
  mutable shadow_count : int;  (** number of objects directly shadowing us *)
  kind : kind;
  mutable cached : bool;  (** resting in the VM object cache *)
  swslots : (int, int) Hashtbl.t;  (** page offset -> swap slot (anonymous paging) *)
  mutable has_vref : bool;
  mutable lru_node : t Sim.Dlist.node option;
  mutable dead : bool;
  okey : Physmem.Lookup.okey;
      (* lockless-lookup identity; insert/remove publish/revoke through it *)
  mutable lockh : Sim.Lockstat.lock option;
      (* lock-observatory handle, registered by [lock_handle] *)
}

type Physmem.Page.tag += Obj_page of t
type Bsd_sys.live_obj += Anon_obj of t

(* The object's lock in the registry, registered on first use.  The fault
   path asks for it only while the registry is active. *)
let lock_handle ls t =
  match t.lockh with
  | Some l -> l
  | None ->
      let l =
        Sim.Lockstat.register ls ~cls:"object" ("object#" ^ string_of_int t.id)
      in
      t.lockh <- Some l;
      l

(* Every live anonymous object of [sys], for the swap-leak audit. *)
let live_anon_objects sys =
  Hashtbl.fold
    (fun _ o acc -> match o with Anon_obj o -> o :: acc | _ -> acc)
    sys.Bsd_sys.live_anons []

let alloc_bare sys kind =
  let stats = Bsd_sys.stats sys in
  stats.Sim.Stats.objects_allocated <- stats.Sim.Stats.objects_allocated + 1;
  Bsd_sys.charge sys (Bsd_sys.costs sys).Sim.Cost_model.object_alloc;
  let obj =
    {
      id = Bsd_sys.fresh_id sys;
      refs = 1;
      pages = Hashtbl.create 8;
      shadow = None;
      shadow_offset = 0;
      shadow_count = 0;
      kind;
      cached = false;
      swslots = Hashtbl.create 8;
      has_vref = false;
      lru_node = None;
      dead = false;
      okey = Physmem.Lookup.okey (Bsd_sys.physmem sys);
      lockh = None;
    }
  in
  (match kind with
  | Anon -> Hashtbl.replace sys.Bsd_sys.live_anons obj.id (Anon_obj obj)
  | Vnode _ -> ());
  obj

(* A vnode object also needs a vm_pager, a vn_pager and a pager-hash
   insertion — three allocations plus a hash operation where UVM needs
   none (paper Figure 4). *)
let alloc_vnode_object sys vn =
  let obj = alloc_bare sys (Vnode vn) in
  let stats = Bsd_sys.stats sys in
  stats.Sim.Stats.pager_structs_allocated <-
    stats.Sim.Stats.pager_structs_allocated + 2;
  Bsd_sys.charge_struct_alloc sys;
  Bsd_sys.charge_struct_alloc sys;
  stats.Sim.Stats.hash_lookups <- stats.Sim.Stats.hash_lookups + 1;
  Bsd_sys.charge sys (Bsd_sys.costs sys).Sim.Cost_model.hash_lookup;
  Vfs.vref (Bsd_sys.vfs sys) vn;
  obj.has_vref <- true;
  obj

let alloc_anon_object sys = alloc_bare sys Anon

(* Allocate a shadow object on top of [backing]; takes over the caller's
   reference on [backing]. *)
let alloc_shadow sys ~backing ~offset =
  let obj = alloc_bare sys Anon in
  (* Interposing a shadow object is far more than a bare allocation:
     copy-object bookkeeping, queue insertion, pager preparation (the gap
     between the paper's 48us private and 24us shared read faults). *)
  Bsd_sys.charge sys (3.0 *. (Bsd_sys.costs sys).Sim.Cost_model.object_alloc);
  let stats = Bsd_sys.stats sys in
  stats.Sim.Stats.shadow_objects_allocated <-
    stats.Sim.Stats.shadow_objects_allocated + 1;
  obj.shadow <- Some backing;
  obj.shadow_offset <- offset;
  backing.shadow_count <- backing.shadow_count + 1;
  obj

let reference obj = obj.refs <- obj.refs + 1

let find_page obj ~pgno = Hashtbl.find_opt obj.pages pgno

(* Make a frame allocated to [obj] resident at the offset it already
   carries — the pager's install step. *)
let adopt obj (page : Physmem.Page.t) =
  let pgno = page.owner_offset in
  assert (not (Hashtbl.mem obj.pages pgno));
  Hashtbl.replace obj.pages pgno page;
  Physmem.Lookup.publish obj.okey ~pgno page

let insert_page obj ~pgno (page : Physmem.Page.t) =
  page.owner <- Obj_page obj;
  page.owner_offset <- pgno;
  adopt obj page

let remove_page obj ~pgno =
  Physmem.Lookup.revoke obj.okey ~pgno;
  Hashtbl.remove obj.pages pgno
let resident_count obj = Hashtbl.length obj.pages

let dirty_pages obj =
  Hashtbl.fold
    (fun _ (p : Physmem.Page.t) acc -> if p.dirty then p :: acc else acc)
    obj.pages []

let chain_length obj =
  let rec go n = function None -> n | Some o -> go (n + 1) o.shadow in
  go 1 obj.shadow

(* Release every resource the object holds except its shadow reference
   (the caller handles chain unreferencing). *)
let free_resources sys obj =
  let physmem = Bsd_sys.physmem sys in
  let ctx = Bsd_sys.pmap_ctx sys in
  Hashtbl.iter
    (fun pgno (page : Physmem.Page.t) ->
      Physmem.Lookup.revoke obj.okey ~pgno;
      Pmap.page_remove_all ctx page;
      if page.wire_count > 0 then invalid_arg "Vm_object: freeing wired page";
      Physmem.free_page physmem page)
    obj.pages;
  Hashtbl.reset obj.pages;
  Hashtbl.iter
    (fun _ slot -> Swap.Swaptier.free_slots (Bsd_sys.swapdev sys) ~slot ~n:1)
    obj.swslots;
  Hashtbl.reset obj.swslots;
  (match obj.kind with
  | Vnode vn ->
      Swap.Swaptier.cache_invalidate_obj (Bsd_sys.swapdev sys)
        ~vid:vn.Vfs.Vnode.vid;
      if obj.has_vref then begin
        obj.has_vref <- false;
        Vfs.vrele (Bsd_sys.vfs sys) vn
      end
  | Anon -> ());
  Hashtbl.remove sys.Bsd_sys.live_anons obj.id;
  obj.dead <- true

(* Walk the shadow chain looking for the page at [off] (offset within
   [obj]).  Pages on swap are brought in (one I/O each — BSD VM does not
   cluster).  Returns the owning object, the offset within it, the page,
   and the chain depth at which it was found; [Error Pager_error] when the
   pagein fails beyond the retry budget. *)
let rec find_in_chain sys obj ~off ~depth =
  Bsd_sys.charge sys (Bsd_sys.costs sys).Sim.Cost_model.object_search;
  match find_page obj ~pgno:off with
  | Some page -> Ok (Some (obj, off, page, depth))
  | None -> (
      match Hashtbl.find_opt obj.swslots off with
      | Some slot -> (
          (* Swap pagein may draw on the kernel reserve: it is the path
             that turns swap slots back into reclaimable frames. *)
          let page =
            Physmem.alloc (Bsd_sys.physmem sys) ~privileged:true
              ~owner:(Obj_page obj) ~offset:off ()
          in
          (* The frame allocation may have driven the pagedaemon, whose
             tier drain can migrate this very slot to a healthy device
             and free the old one: re-read the binding before the I/O. *)
          let slot =
            match Hashtbl.find_opt obj.swslots off with
            | Some s -> s
            | None -> slot
          in
          match
            Bsd_sys.pagein_swap sys ~pager:"swap" ~install:adopt obj ~slot
              page
          with
          | Ok () -> Ok (Some (obj, off, page, depth))
          | Error _ as e -> e)
      | None -> (
          match obj.kind with
          | Vnode vn -> (
              (* Bottom of a file chain: read exactly one page (paper §1.1:
                 BSD VM I/O is one page at a time).  A swapcache copy
                 spilled at reclaim time serves the re-fault from the fast
                 swap tier instead. *)
              let page =
                Physmem.alloc (Bsd_sys.physmem sys) ~owner:(Obj_page obj)
                  ~offset:off ()
              in
              if
                Bsd_sys.cache_fill sys ~vid:vn.Vfs.Vnode.vid ~pgno:off
                  ~install:adopt obj page
              then Ok (Some (obj, off, page, depth))
              else
                match
                  Bsd_sys.pagein_file sys vn ~start_page:off ~pager:"vnode"
                    ~install:adopt obj [ page ]
                with
                | Ok () -> Ok (Some (obj, off, page, depth))
                | Error _ as e -> e)
          | Anon -> (
              match obj.shadow with
              | Some backing ->
                  find_in_chain sys backing ~off:(off + obj.shadow_offset)
                    ~depth:(depth + 1)
              | None -> Ok None)))

(* The collapse operation (paper §5.1): try to merge or bypass [obj]'s
   backing object.  Runs in a loop, charging per attempt; succeeds only
   when the backing object is an unshared anonymous object. *)
let rec collapse sys obj =
  let stats = Bsd_sys.stats sys in
  match obj.shadow with
  | None -> ()
  | Some backing ->
      stats.Sim.Stats.collapse_attempts <- stats.Sim.Stats.collapse_attempts + 1;
      (* Scanning the backing object's pages costs time proportional to
         its residency. *)
      Bsd_sys.charge sys
        ((Bsd_sys.costs sys).Sim.Cost_model.object_search
        *. float_of_int (1 + resident_count backing));
      if backing.kind <> Anon then ()
      else if backing.refs = 1 && backing.shadow_count = 1 then begin
        (* Merge: pull the backing object's pages and swap slots up,
           discarding the ones we already obscure (redundant copies — the
           after-the-fact leak repair). *)
        let physmem = Bsd_sys.physmem sys in
        let ctx = Bsd_sys.pmap_ctx sys in
        let moved = ref [] in
        Hashtbl.iter
          (fun boff (page : Physmem.Page.t) ->
            let our_off = boff - obj.shadow_offset in
            if our_off >= 0 && find_page obj ~pgno:our_off = None then
              moved := (boff, our_off, page) :: !moved
            else begin
              Pmap.page_remove_all ctx page;
              Physmem.free_page physmem page
            end)
          backing.pages;
        Hashtbl.reset backing.pages;
        List.iter
          (fun (_boff, our_off, page) -> insert_page obj ~pgno:our_off page)
          !moved;
        let slot_moves = ref [] in
        Hashtbl.iter
          (fun boff slot ->
            let our_off = boff - obj.shadow_offset in
            if
              our_off >= 0
              && find_page obj ~pgno:our_off = None
              && not (Hashtbl.mem obj.swslots our_off)
            then slot_moves := (our_off, slot) :: !slot_moves
            else Swap.Swaptier.free_slots (Bsd_sys.swapdev sys) ~slot ~n:1)
          backing.swslots;
        Hashtbl.reset backing.swslots;
        List.iter
          (fun (our_off, slot) -> Hashtbl.replace obj.swslots our_off slot)
          !slot_moves;
        obj.shadow <- backing.shadow;
        obj.shadow_offset <- obj.shadow_offset + backing.shadow_offset;
        backing.shadow <- None;
        backing.dead <- true;
        Hashtbl.remove sys.Bsd_sys.live_anons backing.id;
        stats.Sim.Stats.collapse_successes <-
          stats.Sim.Stats.collapse_successes + 1;
        collapse sys obj
      end
      else if
        backing.refs > 1 && resident_count backing = 0
        && Hashtbl.length backing.swslots = 0
      then begin
        (* Bypass an empty intermediate object. *)
        (match backing.shadow with
        | Some grand ->
            grand.refs <- grand.refs + 1;
            grand.shadow_count <- grand.shadow_count + 1;
            obj.shadow <- Some grand;
            obj.shadow_offset <- obj.shadow_offset + backing.shadow_offset
        | None -> obj.shadow <- None);
        backing.shadow_count <- backing.shadow_count - 1;
        backing.refs <- backing.refs - 1;
        stats.Sim.Stats.collapse_successes <-
          stats.Sim.Stats.collapse_successes + 1;
        collapse sys obj
      end
