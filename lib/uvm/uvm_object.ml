type ext = ..
type ext += No_ext

type t = {
  id : int;
  mutable refs : int;
  pages : (int, Physmem.Page.t) Hashtbl.t;
  mutable pgops : pager_ops;
  okey : Physmem.Lookup.okey;
  ext : ext;
}

and pager_ops = {
  pgo_name : string;
  pgo_get :
    center:int ->
    lo:int ->
    hi:int ->
    ((int * Physmem.Page.t) list, Vmiface.Vmtypes.fault_error) result;
  pgo_put : Physmem.Page.t list -> (unit, Vmiface.Vmtypes.fault_error) result;
  pgo_cache_spill : Physmem.Page.t -> unit;
  pgo_reference : unit -> unit;
  pgo_detach : unit -> unit;
}

type Physmem.Page.tag += Uobj_page of t

let dummy_ops =
  {
    pgo_name = "uninitialized";
    pgo_get = (fun ~center:_ ~lo:_ ~hi:_ -> assert false);
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
    }
  in
  t.pgops <- mk_ops t;
  t

let find_page t ~pgno = Hashtbl.find_opt t.pages pgno

let insert_page _sys t ~pgno (page : Physmem.Page.t) =
  assert (not (Hashtbl.mem t.pages pgno));
  page.owner <- Uobj_page t;
  page.owner_offset <- pgno;
  Hashtbl.replace t.pages pgno page;
  Physmem.Lookup.publish t.okey ~pgno page

let remove_page t ~pgno =
  Physmem.Lookup.revoke t.okey ~pgno;
  Hashtbl.remove t.pages pgno
let resident_count t = Hashtbl.length t.pages
let resident t = Hashtbl.fold (fun pgno page acc -> (pgno, page) :: acc) t.pages []

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
