(** The BSD VM object cache and object dereferencing (paper §4).

    BSD VM keeps up to [obj_cache_limit] (historically one hundred)
    unreferenced vnode-backed objects alive, each pinning its vnode with an
    extra reference — a second cache layered redundantly on the vnode
    system's own, with the pathologies Figure 2 measures: beyond one
    hundred files the LRU object is discarded even when memory is plentiful,
    and pinned vnodes distort the vnode system's LRU choice. *)

let obj_cache_limit = 100

type t = {
  lru : Vm_object.t Sim.Dlist.t;  (** unreferenced cached objects, LRU first *)
  by_vnode : (int, Vm_object.t) Hashtbl.t;  (** vnode id -> its VM object *)
}

let create () = { lru = Sim.Dlist.create (); by_vnode = Hashtbl.create 64 }

let cached_count t = Sim.Dlist.length t.lru

(* Find the VM object for a vnode via the pager hash table (a probe BSD
   pays and UVM doesn't). *)
let lookup_vnode sys t vn =
  let stats = Bsd_sys.stats sys in
  stats.Sim.Stats.hash_lookups <- stats.Sim.Stats.hash_lookups + 1;
  Bsd_sys.charge sys (Bsd_sys.costs sys).Sim.Cost_model.hash_lookup;
  Hashtbl.find_opt t.by_vnode vn.Vfs.Vnode.vid

(* Fully tear an object down, writing dirty file pages back first. *)
let terminate sys t obj =
  (match obj.Vm_object.kind with
  | Vm_object.Vnode vn ->
      (match Vm_object.dirty_pages obj with
      | [] -> ()
      | dirty ->
          (* One I/O per page: BSD VM does not cluster.  Termination is
             best-effort: a page whose write fails is lost with the
             object, as when a real kernel hits EIO at reclaim time. *)
          List.iter
            (fun (p : Physmem.Page.t) ->
              match
                Bsd_sys.retry_transient sys (fun () ->
                    Vfs.write_pages (Bsd_sys.vfs sys) vn
                      ~start_page:p.owner_offset ~srcs:[ p ])
              with
              | Ok () | Error _ -> ())
            dirty);
      Hashtbl.remove t.by_vnode vn.Vfs.Vnode.vid
  | Vm_object.Anon -> ());
  Vm_object.free_resources sys obj

(* Drop one reference; objects reaching zero either persist in the object
   cache (vnode-backed) or die, recursively releasing their chain. *)
let rec deref sys t obj =
  if obj.Vm_object.refs <= 0 then invalid_arg "Vm_objcache.deref: no refs";
  obj.Vm_object.refs <- obj.Vm_object.refs - 1;
  if obj.Vm_object.refs = 0 then
    match obj.Vm_object.kind with
    | Vm_object.Vnode _ ->
        obj.Vm_object.cached <- true;
        obj.Vm_object.lru_node <- Some (Sim.Dlist.push_tail t.lru obj);
        if Sim.Dlist.length t.lru > obj_cache_limit then begin
          (* Cache full: discard the least recently used object even if
             memory is plentiful (Figure 2's cliff). *)
          match Sim.Dlist.pop_head t.lru with
          | Some victim ->
              victim.Vm_object.cached <- false;
              victim.Vm_object.lru_node <- None;
              (Bsd_sys.stats sys).Sim.Stats.obj_cache_evictions <-
                (Bsd_sys.stats sys).Sim.Stats.obj_cache_evictions + 1;
              terminate sys t victim
          | None -> ()
        end
    | Vm_object.Anon ->
        let backing = obj.Vm_object.shadow in
        terminate sys t obj;
        (match backing with
        | Some b ->
            b.Vm_object.shadow_count <- b.Vm_object.shadow_count - 1;
            deref sys t b
        | None -> ())

(* Take a reference for a new mapping, reviving the object from the cache
   if it was resting there. *)
let reference_for_mapping sys t obj =
  if obj.Vm_object.cached then begin
    obj.Vm_object.cached <- false;
    (match obj.Vm_object.lru_node with
    | Some node ->
        Sim.Dlist.remove t.lru node;
        obj.Vm_object.lru_node <- None
    | None -> ());
    obj.Vm_object.refs <- 1;
    (Bsd_sys.stats sys).Sim.Stats.obj_cache_hits <-
      (Bsd_sys.stats sys).Sim.Stats.obj_cache_hits + 1
  end
  else Vm_object.reference obj

(* The mmap path: find or create the vnode's VM object. *)
let vnode_object sys t vn =
  match lookup_vnode sys t vn with
  | Some obj ->
      reference_for_mapping sys t obj;
      obj
  | None ->
      let obj = Vm_object.alloc_vnode_object sys vn in
      Hashtbl.replace t.by_vnode vn.Vfs.Vnode.vid obj;
      (Bsd_sys.stats sys).Sim.Stats.obj_cache_misses <-
        (Bsd_sys.stats sys).Sim.Stats.obj_cache_misses + 1;
      obj
