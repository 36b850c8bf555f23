(* UVM maps: single-step insert, lookup, clipping, two-phase unmap,
   attribute changes, kernel-entry merging, invariants. *)

module Vt = Vmiface.Vmtypes

let mk ?trace_buf () =
  let config =
    {
      Vmiface.Machine.default_config with
      ram_pages = 256;
      swap_pages = 512;
      trace_buf;
    }
  in
  let sys = Uvm.State.create (Vmiface.Machine.boot ~config ()) in
  let pmap = Pmap.create (Uvm.State.pmap_ctx sys) in
  (sys, Uvm.Map.create sys ~pmap ~lo:0 ~hi:4096 ~kernel:false)

let insert ?(merge = false) ?(prot = Pmap.Prot.rw) ?obj ?(cow = true)
    ?(needs_copy = true) map ~spage ~npages =
  Uvm.Map.insert map ~spage ~npages ~obj ~objoff:0 ~prot
    ~maxprot:Pmap.Prot.rwx ~inh:Vt.Inh_copy ~advice:Vt.Adv_normal ~cow
    ~needs_copy ~merge

let check_ok map =
  match Uvm.Map.check_invariants map with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("map invariant: " ^ msg)

let test_insert_lookup () =
  let _, map = mk () in
  let _e1 = insert map ~spage:10 ~npages:5 in
  let _e2 = insert map ~spage:20 ~npages:5 in
  Alcotest.(check int) "two entries" 2 (Uvm.Map.entry_count map);
  (match Uvm.Map.lookup map ~vpn:12 with
  | Some e -> Alcotest.(check int) "right entry" 10 e.Uvm.Map.spage
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "hole misses" true (Uvm.Map.lookup map ~vpn:17 = None);
  Alcotest.(check bool) "below misses" true (Uvm.Map.lookup map ~vpn:5 = None);
  Alcotest.(check bool) "end exclusive" true (Uvm.Map.lookup map ~vpn:15 = None);
  check_ok map

let test_insert_overlap_rejected () =
  let _, map = mk () in
  ignore (insert map ~spage:10 ~npages:10);
  Alcotest.check_raises "overlap"
    (Invalid_argument "Uvm_map.insert: range not free") (fun () ->
      ignore (insert map ~spage:15 ~npages:10));
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Uvm_map.insert: out of map bounds") (fun () ->
      ignore (insert map ~spage:4090 ~npages:10));
  Alcotest.(check int) "still one entry" 1 (Uvm.Map.entry_count map)

let test_find_space () =
  let _, map = mk () in
  ignore (insert map ~spage:0 ~npages:10);
  ignore (insert map ~spage:12 ~npages:10);
  Alcotest.(check int) "first fit in hole" 10 (Uvm.Map.find_space map ~npages:2);
  Alcotest.(check int) "large skips hole" 22 (Uvm.Map.find_space map ~npages:5);
  Alcotest.check_raises "exhausted" Not_found (fun () ->
      ignore (Uvm.Map.find_space map ~npages:5000))

let test_clip_range () =
  let _, map = mk () in
  ignore (insert map ~spage:0 ~npages:10);
  Uvm.Map.clip_range map ~spage:3 ~epage:7;
  Alcotest.(check int) "split into three" 3 (Uvm.Map.entry_count map);
  let spans =
    List.map (fun e -> (e.Uvm.Map.spage, e.Uvm.Map.epage)) (Uvm.Map.entries map)
  in
  Alcotest.(check (list (pair int int))) "spans" [ (0, 3); (3, 7); (7, 10) ] spans;
  check_ok map

let test_clip_preserves_amap_offsets () =
  let sys, map = mk () in
  let e = insert map ~spage:0 ~npages:8 ~needs_copy:false in
  let am = Uvm.Amap.create sys ~nslots:8 in
  let marked = Uvm.Anon.alloc sys ~zero:true in
  Uvm.Amap.add sys am ~slot:5 marked;
  e.Uvm.Map.amap <- Some am;
  Uvm.Map.clip_range map ~spage:4 ~epage:8;
  let tail = List.nth (Uvm.Map.entries map) 1 in
  Alcotest.(check int) "tail amap offset" 4 tail.Uvm.Map.amapoff;
  Alcotest.(check int) "amap splitref" 2 am.Uvm.Amap.refs;
  Alcotest.(check bool) "anon visible through tail" true
    (match Uvm.Amap.lookup am ~slot:(tail.Uvm.Map.amapoff + 1) with
    | Some a -> a == marked
    | None -> false);
  check_ok map

let test_unmap_partial () =
  let sys, map = mk () in
  ignore (insert map ~spage:0 ~npages:10);
  let before = (Uvm.State.stats sys).Sim.Stats.map_entries_freed in
  Uvm.Map.unmap map ~spage:2 ~npages:4;
  Alcotest.(check int) "two remain" 2 (Uvm.Map.entry_count map);
  Alcotest.(check bool) "hole unmapped" true (Uvm.Map.lookup map ~vpn:3 = None);
  Alcotest.(check bool) "head still there" true (Uvm.Map.lookup map ~vpn:1 <> None);
  Alcotest.(check int) "freed accounted" (before + 1)
    (Uvm.State.stats sys).Sim.Stats.map_entries_freed;
  check_ok map

let test_two_phase_unmap_lock_hold () =
  (* The reference drops (object detach) happen after the map lock is
     released: lock-hold time must not include the pager work.  The lock
     observatory records holds only on a traced boot. *)
  let sys, map = mk ~trace_buf:64 () in
  let vfs = Uvm.State.vfs sys in
  let vn = Vfs.create_file vfs ~name:"/f" ~size:40960 in
  let obj = Uvm.Vnode_pager.attach sys vn in
  ignore (insert map ~spage:0 ~npages:10 ~obj ~cow:false ~needs_copy:false);
  let locks = Uvm.State.locks sys in
  let held_before = Sim.Lockstat.class_hold_us locks "map" in
  Uvm.Map.unmap map ~spage:0 ~npages:10;
  let held = Sim.Lockstat.class_hold_us locks "map" -. held_before in
  Alcotest.(check bool) "hold recorded" true (held > 0.0);
  Alcotest.(check bool) "short hold" true (held < 50.0);
  Alcotest.(check int) "object detached" 0 obj.Uvm.Object.refs

let test_protect_and_maxprot () =
  let _, map = mk () in
  ignore (insert map ~spage:0 ~npages:4 ~prot:Pmap.Prot.rw);
  Uvm.Map.protect map ~spage:0 ~npages:4 ~prot:Pmap.Prot.read;
  (match Uvm.Map.lookup map ~vpn:0 with
  | Some e ->
      Alcotest.(check bool) "downgraded" true
        (Pmap.Prot.equal e.Uvm.Map.prot Pmap.Prot.read)
  | None -> Alcotest.fail "missing");
  let e = Option.get (Uvm.Map.lookup map ~vpn:0) in
  e.Uvm.Map.maxprot <- Pmap.Prot.read;
  Alcotest.check_raises "exceeds maxprot"
    (Invalid_argument "Uvm_map.protect: exceeds maxprot") (fun () ->
      Uvm.Map.protect map ~spage:0 ~npages:4 ~prot:Pmap.Prot.rw)

let test_attribute_clipping () =
  let _, map = mk () in
  ignore (insert map ~spage:0 ~npages:10);
  Uvm.Map.set_inherit map ~spage:2 ~npages:3 Vt.Inh_none;
  Alcotest.(check int) "fragmented" 3 (Uvm.Map.entry_count map);
  let mid = Option.get (Uvm.Map.lookup map ~vpn:3) in
  Alcotest.(check bool) "inherit set" true (mid.Uvm.Map.inh = Vt.Inh_none);
  Uvm.Map.set_advice map ~spage:2 ~npages:3 Vt.Adv_random;
  Alcotest.(check int) "no further fragmentation" 3 (Uvm.Map.entry_count map);
  Uvm.Map.mark_wired map ~spage:2 ~npages:3;
  Alcotest.(check int) "wired recorded" 1 mid.Uvm.Map.wired;
  Uvm.Map.mark_unwired map ~spage:2 ~npages:3;
  Alcotest.(check int) "unwired" 0 mid.Uvm.Map.wired;
  Alcotest.check_raises "double unwire"
    (Invalid_argument "Uvm_map.mark_unwired: not wired") (fun () ->
      Uvm.Map.mark_unwired map ~spage:2 ~npages:3);
  check_ok map

let test_kernel_merge () =
  let sys, _ = mk () in
  let pmap = Pmap.create (Uvm.State.pmap_ctx sys) in
  let kmap = Uvm.Map.create sys ~pmap ~lo:0 ~hi:4096 ~kernel:true in
  ignore (insert ~merge:true ~needs_copy:false kmap ~spage:0 ~npages:16);
  ignore (insert ~merge:true ~needs_copy:false kmap ~spage:16 ~npages:8);
  Alcotest.(check int) "adjacent compatible entries merged" 1
    (Uvm.Map.entry_count kmap);
  ignore (insert ~merge:true ~needs_copy:false kmap ~spage:100 ~npages:8);
  Alcotest.(check int) "gap blocks merge" 2 (Uvm.Map.entry_count kmap);
  ignore
    (insert ~merge:true ~needs_copy:false ~prot:Pmap.Prot.read kmap ~spage:24
       ~npages:8);
  Alcotest.(check int) "attribute mismatch blocks merge" 3
    (Uvm.Map.entry_count kmap);
  check_ok kmap

let test_destroy_drops_all () =
  let sys, map = mk () in
  let vn = Vfs.create_file (Uvm.State.vfs sys) ~name:"/g" ~size:4096 in
  let obj = Uvm.Vnode_pager.attach sys vn in
  ignore (insert map ~spage:0 ~npages:1 ~obj ~cow:false ~needs_copy:false);
  ignore (insert map ~spage:5 ~npages:3);
  Uvm.Map.destroy map;
  Alcotest.(check int) "empty" 0 (Uvm.Map.entry_count map);
  Alcotest.(check int) "obj released" 0 obj.Uvm.Object.refs

(* Property: random mmap/munmap/mprotect/mlock sequences keep the map
   sorted, non-overlapping and correctly counted — on UVM's map and on
   BSD VM's, which share the list mechanism (Vmiface.Map_core).  The
   attribute changes clip entries at the range edges. *)
type map_op = {
  range_free : spage:int -> npages:int -> bool;
  map : spage:int -> npages:int -> unit;
  unmap : spage:int -> npages:int -> unit;
  protect : spage:int -> npages:int -> unit;
  wire : spage:int -> npages:int -> unit;
  check : unit -> (unit, string) result;
}

let uvm_map_ops () =
  let _, map = mk () in
  {
    range_free = Uvm.Map.range_free map;
    map = (fun ~spage ~npages -> ignore (insert map ~spage ~npages));
    unmap = Uvm.Map.unmap map;
    protect = Uvm.Map.protect map ~prot:Pmap.Prot.read;
    wire = Uvm.Map.mark_wired map;
    check = (fun () -> Uvm.Map.check_invariants map);
  }

let bsd_map_ops () =
  let config =
    { Vmiface.Machine.default_config with ram_pages = 256; swap_pages = 512 }
  in
  let sys = Bsdvm.State.create (Vmiface.Machine.boot ~config ()) in
  let cache = Bsdvm.Objcache.create () in
  let pmap = Pmap.create (Bsdvm.State.pmap_ctx sys) in
  let map = Bsdvm.Map.create sys ~pmap ~lo:0 ~hi:4096 ~kernel:false in
  {
    range_free = Bsdvm.Map.range_free map;
    map =
      (fun ~spage ~npages ->
        let obj = Bsdvm.Object.alloc_anon_object sys in
        ignore
          (Bsdvm.Map.insert_default map ~spage ~npages ~obj:(Some obj)
             ~objoff:0 ~cow:false ~needs_copy:false));
    unmap = Bsdvm.Map.unmap cache map;
    protect = Bsdvm.Map.protect map ~prot:Pmap.Prot.read;
    wire = Bsdvm.Map.mark_wired map;
    check = (fun () -> Bsdvm.Map.check_invariants map);
  }

let prop_map_invariants =
  QCheck.Test.make ~name:"map invariants under random mmap/munmap" ~count:80
    QCheck.(list (triple (int_range 0 3) (int_range 0 200) (int_range 1 20)))
    (fun ops ->
      List.for_all
        (fun m ->
          List.iter
            (fun (op, spage, npages) ->
              match op with
              | 0 -> if m.range_free ~spage ~npages then m.map ~spage ~npages
              | 1 -> m.unmap ~spage ~npages
              | 2 -> m.protect ~spage ~npages
              | _ -> m.wire ~spage ~npages)
            ops;
          m.check () = Ok ())
        [ uvm_map_ops (); bsd_map_ops () ])

let () =
  Alcotest.run "uvm_map"
    [
      ( "insert",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "overlap rejected" `Quick test_insert_overlap_rejected;
          Alcotest.test_case "find space" `Quick test_find_space;
          Alcotest.test_case "kernel merge" `Quick test_kernel_merge;
        ] );
      ( "clip",
        [
          Alcotest.test_case "range" `Quick test_clip_range;
          Alcotest.test_case "amap offsets" `Quick test_clip_preserves_amap_offsets;
        ] );
      ( "unmap",
        [
          Alcotest.test_case "partial" `Quick test_unmap_partial;
          Alcotest.test_case "two-phase lock hold" `Quick test_two_phase_unmap_lock_hold;
          Alcotest.test_case "destroy" `Quick test_destroy_drops_all;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "protect/maxprot" `Quick test_protect_and_maxprot;
          Alcotest.test_case "clipping" `Quick test_attribute_clipping;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_map_invariants ]);
    ]
