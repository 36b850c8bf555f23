(** BSD VM memory maps.

    The same sorted entry list as UVM's — UVM retained this part of the
    design (paper §1.2), and both instantiate {!Vmiface.Map_core} — with
    no anonymous layer and the baseline's policies the paper criticises:
    a two-step mapping whose attribute changes relock and re-find the
    range, no entry merging, every wiring recorded by clipping map
    entries, and a single-phase unmap that holds the map lock through
    object deallocation — including any I/O it triggers (paper §3.1). *)

module Vmtypes = Vmiface.Vmtypes

include Vmiface.Map_core.Make (struct
  type sys = Bsd_sys.t
  type obj = Vm_object.t
  type amap = Vmiface.Map_core.none

  let name = "Vm_map"
  let mach (sys : sys) = sys.Bsd_sys.mach
  let obj_reference = Vm_object.reference
  let amap_splitref (am : amap) = match am with _ -> .
  let amap_nslots (am : amap) = match am with _ -> .

  (* Attribute changes re-lock the map and search for the range again —
     the second step of two-step mapping. *)
  let relookup = true
end)

(* vm_map_find: insert with *default* attributes — the first step of the
   baseline's two-step mapping (paper §3.1).  Non-default attributes
   require separate relock-and-change calls. *)
let insert_default t ~spage ~npages ~obj ~objoff ~cow ~needs_copy =
  if npages < 1 then invalid_arg "Vm_map.insert_default: npages must be >= 1";
  lock t;
  if not (range_free t ~spage ~npages) then begin
    unlock t;
    invalid_arg "Vm_map.insert_default: range not free"
  end;
  charge t (costs t).Sim.Cost_model.map_insert;
  let e =
    alloc_entry t ~spage ~epage:(spage + npages) ~obj ~objoff ~amap:None
      ~amapoff:0 ~prot:Pmap.Prot.rw ~maxprot:Pmap.Prot.rwx
      ~inh:Vmtypes.Inh_copy ~advice:Vmtypes.Adv_normal ~wired:0 ~cow
      ~needs_copy
  in
  let prev, _ = search t ~from:t.first ~vpn:spage in
  link_after t prev e;
  t.hint <- Some e;
  unlock t;
  e

(* Single-phase unmap: the reference drops — and any I/O they trigger —
   happen while the map lock is still held, blocking other threads
   (the inefficiency UVM's two-phase unmap removes). *)
let unmap cache t ~spage ~npages =
  lock t;
  List.iter
    (fun e ->
      (match e.obj with
      | Some o -> Vm_objcache.deref t.sys cache o
      | None -> ());
      free_entry t e)
    (unlink_range t ~spage ~epage:(spage + npages));
  unlock t

let destroy cache t = destroy_with (unmap cache) t
