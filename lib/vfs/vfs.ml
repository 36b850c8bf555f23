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
let free_list_length t = Sim.Dlist.length t.free_lru
let register_recycle_hook t f = t.recycle_hooks <- f :: t.recycle_hooks

(* Cheap deterministic mixing of the name hash and the offset. *)
let pattern_byte h off =
  Char.unsafe_chr (((h * 31) lxor off lxor ((off lsr 8) * 131)) land 0xff)

let file_byte ~name ~off = pattern_byte (Hashtbl.hash name) off

(* Within an aligned 256-byte run the pattern is one constant xor the low
   byte of the offset, so row [c] of this table, bytes [c lxor i] for
   [i] in [0, 256), holds every run a file can contain. *)
let ramp =
  String.init 65536 (fun k -> Char.unsafe_chr ((k lsr 8) lxor (k land 0xff)))

(* Write the pattern of the file with name hash [h] for offsets
   [off, off + len) into [dst] at [pos], one blit per 256-byte run. *)
let rec generate h ~off dst pos len =
  if len > 0 then begin
    let i = off land 0xff in
    let n = min len (256 - i) in
    let c = ((h * 31) lxor ((off lsr 8) * 131)) land 0xff in
    Bytes.blit_string ramp ((c lsl 8) lor i) dst pos n;
    generate h ~off:(off + n) dst (pos + n) (len - n)
  end

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
  let vn =
    {
      Vnode.vid = t.next_vid;
      name;
      name_hash = Hashtbl.hash name;
      size;
      usecount = 0;
      pages = Array.make ((size + t.page_size - 1) / t.page_size) Bytes.empty;
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

let npages_of _ (vn : Vnode.t) = Array.length vn.pages

(* Bytes of file page [pgno] held within EOF: 0 for a page past it. *)
let avail t (vn : Vnode.t) pgno =
  max 0 (min t.page_size (vn.size - (pgno * t.page_size)))

(* Copy the file's bytes [off, off + len), which lie within one page and
   within EOF, into [dst] at [pos]. *)
let blit_in_page t (vn : Vnode.t) ~off ~len dst pos =
  let stored = vn.pages.(off / t.page_size) in
  if Bytes.length stored > 0 then
    Bytes.blit stored (off mod t.page_size) dst pos len
  else generate vn.name_hash ~off dst pos len

let read_file t (vn : Vnode.t) ~off ~len =
  if off < 0 || len < 0 || off + len > vn.size then
    invalid_arg "Vfs.read_file: range outside the file";
  let dst = Bytes.create len in
  let rec go off pos len =
    if len > 0 then begin
      let n = min len (t.page_size - (off mod t.page_size)) in
      blit_in_page t vn ~off ~len:n dst pos;
      go (off + n) (pos + n) (len - n)
    end
  in
  go off 0 len;
  Bytes.unsafe_to_string dst

let copy_file_page t (vn : Vnode.t) pgno (dst : Physmem.Page.t) =
  let avail = avail t vn pgno in
  if avail > 0 then
    blit_in_page t vn ~off:(pgno * t.page_size) ~len:avail dst.data 0;
  if avail < t.page_size then
    Bytes.fill dst.data avail (t.page_size - avail) '\000'

let read_pages t (vn : Vnode.t) ~start_page ~dsts =
  let n = List.length dsts in
  if n = 0 then invalid_arg "Vfs.read_pages: no pages";
  (* UFS-style read-ahead: a read continuing where the previous one ended
     streams off the platter without paying the seek again. *)
  let sequential = start_page = vn.last_read_end in
  match Sim.Disk.read ~sequential t.disk ~slot:Sim.Disk.no_slot ~npages:n with
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
  match Sim.Disk.write t.disk ~slot:Sim.Disk.no_slot ~npages:n with
  | Error _ as e -> e
  | Ok () ->
      List.iteri
        (fun i (src : Physmem.Page.t) ->
          let pgno = start_page + i in
          let avail = avail t vn pgno in
          if avail > 0 then begin
            if Bytes.length vn.pages.(pgno) = 0 then
              vn.pages.(pgno) <- Bytes.create avail;
            Bytes.blit src.data 0 vn.pages.(pgno) 0 avail
          end;
          src.dirty <- false)
        srcs;
      t.stats.Sim.Stats.pageouts <- t.stats.Sim.Stats.pageouts + n;
      Ok ()
