type ext = ..
type ext += No_ext

type t = {
  id : int;
  mutable refs : int;
  pages : (int, Physmem.Page.t) Hashtbl.t;
  mutable pgops : pager_ops;
  okey : Physmem.Lookup.okey;
  ext : ext;
  mutable lockh : Sim.Lockstat.lock option;
}

and pager_ops = {
  pgo_name : string;
  pgo_get : center:int -> (Physmem.Page.t, Vmiface.Vmtypes.fault_error) result;
  pgo_put : Physmem.Page.t list -> (unit, Vmiface.Vmtypes.fault_error) result;
  pgo_cache_spill : Physmem.Page.t -> unit;
  pgo_reference : unit -> unit;
  pgo_detach : unit -> unit;
}

type Physmem.Page.tag += Uobj_page of t

let dummy_ops =
  {
    pgo_name = "uninitialized";
    pgo_get = (fun ~center:_ -> assert false);
    pgo_put = (fun _ -> assert false);
    pgo_cache_spill = (fun _ -> assert false);
    pgo_reference = (fun () -> assert false);
    pgo_detach = (fun () -> assert false);
  }

let make ?(ext = No_ext) sys mk_ops =
  let t =
    {
      id = Uvm_sys.fresh_id sys;
      refs = 1;
      pages = Hashtbl.create 16;
      pgops = dummy_ops;
      okey = Physmem.Lookup.okey (Uvm_sys.physmem sys);
      ext;
      lockh = None;
    }
  in
  t.pgops <- mk_ops t;
  t

let lock_handle ls t =
  match t.lockh with
  | Some l -> l
  | None ->
      let l =
        Sim.Lockstat.register ls ~cls:"object" ("object#" ^ string_of_int t.id)
      in
      t.lockh <- Some l;
      l

let find t ~pgno = Hashtbl.find t.pages pgno
let mem_page t ~pgno = Hashtbl.mem t.pages pgno

let got_centre t ~center =
  match find t ~pgno:center with
  | page -> Ok page
  | exception Not_found -> Error Vmiface.Vmtypes.Pager_error

let adopt t (page : Physmem.Page.t) =
  let pgno = page.owner_offset in
  assert (not (Hashtbl.mem t.pages pgno));
  Hashtbl.replace t.pages pgno page;
  Physmem.Lookup.publish t.okey ~pgno page

let remove_page t ~pgno =
  Physmem.Lookup.revoke t.okey ~pgno;
  Hashtbl.remove t.pages pgno
let resident_count t = Hashtbl.length t.pages

let dirty_pages t =
  Hashtbl.fold
    (fun _ (page : Physmem.Page.t) acc -> if page.dirty then page :: acc else acc)
    t.pages []

let free_all_pages sys t =
  let physmem = Uvm_sys.physmem sys in
  let ctx = Uvm_sys.pmap_ctx sys in
  Hashtbl.iter
    (fun pgno (page : Physmem.Page.t) ->
      Physmem.Lookup.revoke t.okey ~pgno;
      Pmap.page_remove_all ctx page;
      Physmem.free_page physmem page)
    t.pages;
  Hashtbl.reset t.pages
