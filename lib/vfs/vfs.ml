module Vnode = Vnode

type t = {
  page_size : int;
  max_vnodes : int;
  disk : Sim.Disk.t;
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  files : (string, Vnode.t) Hashtbl.t;
  free_lru : Vnode.t Sim.Dlist.t;
  mutable incore : int;
  mutable next_vid : int;
  mutable recycle_hooks : (Vnode.t -> unit) list;
}

let create ?(max_vnodes = 2048) ~page_size ~clock ~costs ~stats () =
  {
    page_size;
    max_vnodes;
    disk = Sim.Disk.create ~clock ~costs ~stats;
    clock;
    costs;
    stats;
    files = Hashtbl.create 256;
    free_lru = Sim.Dlist.create ();
    incore = 0;
    next_vid = 0;
    recycle_hooks = [];
  }

let page_size t = t.page_size
let disk t = t.disk
let incore_count t = t.incore
let free_list_length t = Sim.Dlist.length t.free_lru
let register_recycle_hook t f = t.recycle_hooks <- f :: t.recycle_hooks

(* Cheap deterministic mixing of the name hash and the offset. *)
let pattern_byte h off =
  Char.unsafe_chr (((h * 31) lxor off lxor ((off lsr 8) * 131)) land 0xff)

let file_byte ~name ~off = pattern_byte (Hashtbl.hash name) off

(* The name is hashed once per file, not once per byte. *)
let fill_pattern ~name data =
  let h = Hashtbl.hash name in
  for i = 0 to Bytes.length data - 1 do
    Bytes.unsafe_set data i (pattern_byte h i)
  done

(* Discard the in-core state of an unreferenced vnode. *)
let recycle t (vn : Vnode.t) =
  assert (vn.usecount = 0);
  List.iter (fun hook -> hook vn) t.recycle_hooks;
  vn.vm_private <- Vnode.No_vm;
  vn.incore <- false;
  (match vn.lru_node with
  | Some node ->
      Sim.Dlist.remove t.free_lru node;
      vn.lru_node <- None
  | None -> ());
  t.incore <- t.incore - 1;
  t.stats.Sim.Stats.vnode_recycles <- t.stats.Sim.Stats.vnode_recycles + 1

let make_room t =
  while t.incore >= t.max_vnodes && not (Sim.Dlist.is_empty t.free_lru) do
    match Sim.Dlist.peek_head t.free_lru with
    | Some lru -> recycle t lru
    | None -> ()
  done

let bring_incore t (vn : Vnode.t) =
  if not vn.incore then begin
    make_room t;
    vn.incore <- true;
    t.incore <- t.incore + 1;
    Sim.Simclock.advance t.clock t.costs.Sim.Cost_model.struct_alloc
  end

let take_ref t (vn : Vnode.t) =
  bring_incore t vn;
  (match vn.lru_node with
  | Some node ->
      Sim.Dlist.remove t.free_lru node;
      vn.lru_node <- None
  | None -> ());
  vn.usecount <- vn.usecount + 1

let create_file t ~name ~size =
  if Hashtbl.mem t.files name then
    invalid_arg (Printf.sprintf "Vfs.create_file: %s exists" name);
  let data = Bytes.create size in
  fill_pattern ~name data;
  let vn =
    {
      Vnode.vid = t.next_vid;
      name;
      size;
      usecount = 0;
      data;
      vm_private = Vnode.No_vm;
      incore = false;
      lru_node = None;
      last_read_end = -1;
    }
  in
  t.next_vid <- t.next_vid + 1;
  Hashtbl.replace t.files name vn;
  take_ref t vn;
  vn

let lookup t ~name =
  match Hashtbl.find_opt t.files name with
  | None -> raise Not_found
  | Some vn ->
      take_ref t vn;
      vn

let vref t vn =
  if not vn.Vnode.incore then invalid_arg "Vfs.vref: vnode not in core";
  ignore t;
  vn.Vnode.usecount <- vn.Vnode.usecount + 1

let vrele t (vn : Vnode.t) =
  if vn.usecount <= 0 then invalid_arg "Vfs.vrele: no references";
  vn.usecount <- vn.usecount - 1;
  if vn.usecount = 0 then
    vn.lru_node <- Some (Sim.Dlist.push_tail t.free_lru vn)

let npages_of t (vn : Vnode.t) = (vn.size + t.page_size - 1) / t.page_size

let copy_file_page t (vn : Vnode.t) pgno (dst : Physmem.Page.t) =
  let off = pgno * t.page_size in
  let avail = max 0 (min t.page_size (vn.size - off)) in
  if avail > 0 then Bytes.blit vn.data off dst.data 0 avail;
  if avail < t.page_size then
    Bytes.fill dst.data avail (t.page_size - avail) '\000'

let read_pages t (vn : Vnode.t) ~start_page ~dsts =
  let n = List.length dsts in
  if n = 0 then invalid_arg "Vfs.read_pages: no pages";
  (* UFS-style read-ahead: a read continuing where the previous one ended
     streams off the platter without paying the seek again. *)
  let sequential = start_page = vn.last_read_end in
  match Sim.Disk.read ~sequential t.disk ~npages:n with
  | Error _ as e -> e
  | Ok () ->
      List.iteri
        (fun i dst ->
          copy_file_page t vn (start_page + i) dst;
          dst.Physmem.Page.dirty <- false)
        dsts;
      vn.last_read_end <- start_page + n;
      t.stats.Sim.Stats.pageins <- t.stats.Sim.Stats.pageins + n;
      Ok ()

let write_pages t (vn : Vnode.t) ~start_page ~srcs =
  let n = List.length srcs in
  if n = 0 then invalid_arg "Vfs.write_pages: no pages";
  match Sim.Disk.write t.disk ~npages:n with
  | Error _ as e -> e
  | Ok () ->
      List.iteri
        (fun i (src : Physmem.Page.t) ->
          let off = (start_page + i) * t.page_size in
          let avail = max 0 (min t.page_size (vn.size - off)) in
          if avail > 0 then Bytes.blit src.data 0 vn.data off avail;
          src.dirty <- false)
        srcs;
      t.stats.Sim.Stats.pageouts <- t.stats.Sim.Stats.pageouts + n;
      Ok ()
