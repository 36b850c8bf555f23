(** The device pager: memory objects over device-owned page frames.

    Paper §6's illustration of why UVM's pager API lets the pager allocate
    pages itself: "consider a pager that wants to allow a process to map
    in code directly from pages in a ROM".  A device object's frames are
    fixed at creation (wired, never paged, never freed by the pagedaemon);
    [pgo_get] hands out those exact frames instead of allocating fresh
    ones — something BSD VM's fill-this-page API cannot express. *)

type device = {
  dev_name : string;
  frames : Physmem.Page.t array;  (** the device's own page frames *)
}

(* Build a read-only device (e.g. a boot ROM) whose contents live in
   dedicated wired frames. *)
let create_rom sys ~name ~contents =
  let physmem = Uvm_sys.physmem sys in
  let page_size = Physmem.page_size physmem in
  let npages = (Bytes.length contents + page_size - 1) / page_size in
  if npages = 0 then invalid_arg "Uvm_device.create_rom: empty contents";
  let frames =
    Array.init npages (fun i ->
        let page =
          Physmem.alloc physmem ~zero:true ~owner:Physmem.Page.No_owner
            ~offset:i ()
        in
        let off = i * page_size in
        let n = min page_size (Bytes.length contents - off) in
        Bytes.blit contents off page.Physmem.Page.data 0 n;
        Physmem.wire physmem page;
        page)
  in
  { dev_name = name; frames }

let npages dev = Array.length dev.frames

(* The embedded memory object for a device, as a vnode embeds its uvn. *)
let attach sys dev =
  let obj =
    Uvm_object.make sys (fun obj ->
        let pgo_get ~center =
          (* Hand out the device's own frame — no allocation, no I/O. *)
          (if
             center >= 0
             && center < Array.length dev.frames
             && not (Uvm_object.mem_page obj ~pgno:center)
           then
             let page = dev.frames.(center) in
             page.Physmem.Page.owner <- Uvm_object.Uobj_page obj;
             page.Physmem.Page.owner_offset <- center;
             Hashtbl.replace obj.Uvm_object.pages center page);
          Uvm_object.got_centre obj ~center
        in
        let pgo_put _pages =
          (* ROM: nothing to write back. *)
          Ok ()
        in
        let pgo_reference () =
          obj.Uvm_object.refs <- obj.Uvm_object.refs + 1
        in
        let pgo_detach () =
          assert (obj.Uvm_object.refs > 0);
          obj.Uvm_object.refs <- obj.Uvm_object.refs - 1;
          if obj.Uvm_object.refs = 0 then
            (* Mappings gone; the frames belong to the device and stay.
               Just forget the object's page index. *)
            Hashtbl.reset obj.Uvm_object.pages
        in
        {
          Uvm_object.pgo_name = "udv";
          pgo_get;
          pgo_put;
          pgo_cache_spill = (fun _ -> ());
          pgo_reference;
          pgo_detach;
        })
  in
  obj
