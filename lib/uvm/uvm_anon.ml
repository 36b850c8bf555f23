type t = {
  id : int;
  mutable refs : int;
  mutable page : Physmem.Page.t option;
  mutable swslot : int;
}

type Physmem.Page.tag += Anon_page of t

let alloc sys ~zero =
  let stats = Uvm_sys.stats sys in
  stats.Sim.Stats.anons_allocated <- stats.Sim.Stats.anons_allocated + 1;
  Uvm_sys.charge_struct_alloc sys;
  let anon = { id = Uvm_sys.fresh_id sys; refs = 1; page = None; swslot = 0 } in
  let physmem = Uvm_sys.physmem sys and owner = Anon_page anon in
  (* Constant flags: passing the variable would box it for the optional
     argument. *)
  let page =
    if zero then Physmem.alloc physmem ~zero:true ~owner ~offset:0 ()
    else Physmem.alloc physmem ~owner ~offset:0 ()
  in
  Physmem.activate (Uvm_sys.physmem sys) page;
  anon.page <- Some page;
  anon

let alloc_empty sys =
  let stats = Uvm_sys.stats sys in
  stats.Sim.Stats.anons_allocated <- stats.Sim.Stats.anons_allocated + 1;
  Uvm_sys.charge_struct_alloc sys;
  { id = Uvm_sys.fresh_id sys; refs = 1; page = None; swslot = 0 }

let ref_ t = t.refs <- t.refs + 1

let set_swslot sys t slot =
  if t.swslot <> 0 then
    Swap.Swaptier.free_slots (Uvm_sys.swapdev sys) ~slot:t.swslot ~n:1;
  t.swslot <- slot

let unref sys t =
  if t.refs <= 0 then invalid_arg "Uvm_anon.unref: no references";
  t.refs <- t.refs - 1;
  if t.refs = 0 then begin
    (match t.page with
    | Some page ->
        let owns =
          match page.Physmem.Page.owner with
          | Anon_page a -> a == t
          | _ -> false
        in
        if owns then begin
          Pmap.page_remove_all (Uvm_sys.pmap_ctx sys) page;
          if
            page.Physmem.Page.wire_count > 0
            && page.Physmem.Page.loan_count = 0
          then
            (* Wired anon pages are unwired by whoever wired them before the
               final unref; hitting this is a bug in the caller.  (A page
               wired *by a borrower* is fine: free_page just drops the
               ownership.) *)
            invalid_arg "Uvm_anon.unref: freeing wired page";
          Physmem.free_page (Uvm_sys.physmem sys) page
        end
        else
          (* The anon was borrowing this page via loanout: just end the
             loan; the owner's mappings are untouched. *)
          Physmem.release_loan (Uvm_sys.physmem sys) page
    | None -> ());
    t.page <- None;
    set_swslot sys t 0;
    let stats = Uvm_sys.stats sys in
    stats.Sim.Stats.anons_freed <- stats.Sim.Stats.anons_freed + 1
  end

let is_resident t = t.page <> None

(* The pager's install step: a paged-in frame becomes the anon's page. *)
let adopt t page = t.page <- Some page

let ensure_resident sys t =
  match t.page with
  | Some page -> Ok page
  | None -> (
      if t.swslot = 0 then
        invalid_arg "Uvm_anon.ensure_resident: anon has neither page nor swap";
      (* Swap pagein creates free memory (the slot's frame can be reclaimed
         once clean), so it may draw on the kernel reserve. *)
      let page =
        Physmem.alloc (Uvm_sys.physmem sys) ~privileged:true
          ~owner:(Anon_page t) ~offset:0 ()
      in
      match
        Uvm_sys.pagein_swap sys ~pager:"anon" ~install:adopt t ~slot:t.swslot
          page
      with
      | Ok () -> Ok page
      | Error _ as e -> e)

let writable_in_place t =
  t.refs = 1
  && match t.page with Some p -> p.Physmem.Page.loan_count = 0 | None -> true
