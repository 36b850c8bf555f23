(* UVM's unified cache (paper §4): file data persists in the vnode's
   embedded object exactly as long as the vnode stays in core — no second
   cache, no 100-object limit, and recycling the vnode tears the object
   down through the hook. *)

module Vt = Vmiface.Vmtypes
module S = Uvm.Sys

let mk ?(max_vnodes = 2048) () =
  let config = { Vmiface.Machine.default_config with max_vnodes } in
  let sys = S.boot ~config () in
  (sys, S.new_vmspace sys)

let stats sys = (S.machine sys).Vmiface.Machine.stats
let vfs sys = (S.machine sys).Vmiface.Machine.vfs

let test_pages_persist_after_unmap () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/p" ~size:16384 in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.access_range sys vm ~vpn ~npages:4 Vt.Read;
  S.munmap sys vm ~vpn ~npages:4;
  (* The object still rides in the vnode with its pages. *)
  (match Uvm.Vnode_pager.uvn_of_vnode vn with
  | Some uvn ->
      Alcotest.(check int) "no mappings" 0 uvn.Uvm.Vnode_pager.obj.Uvm.Object.refs;
      Alcotest.(check int) "pages persist" 4
        (Uvm.Object.resident_count uvn.Uvm.Vnode_pager.obj)
  | None -> Alcotest.fail "object should persist");
  (* Remapping needs no disk I/O. *)
  let ops0 = (stats sys).Sim.Stats.disk_read_ops in
  let vpn2 = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.access_range sys vm ~vpn:vpn2 ~npages:4 Vt.Read;
  Alcotest.(check int) "warm remap: zero reads" ops0 (stats sys).Sim.Stats.disk_read_ops;
  Alcotest.(check bool) "cache hit counted" true ((stats sys).Sim.Stats.obj_cache_hits > 0)

let test_vnode_holds_no_extra_ref_when_unmapped () =
  let sys, vm = mk () in
  let vn = Vfs.create_file (vfs sys) ~name:"/r" ~size:4096 in
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  Alcotest.(check int) "mapped: uvn holds a vref" 2 vn.Vfs.Vnode.usecount;
  S.munmap sys vm ~vpn ~npages:1;
  (* Unlike BSD VM's object cache, nothing pins the vnode now. *)
  Alcotest.(check int) "unmapped: only the open ref" 1 vn.Vfs.Vnode.usecount;
  Vfs.vrele (vfs sys) vn;
  Alcotest.(check int) "vnode free for recycling" 1 (Vfs.free_list_length (vfs sys))

let test_recycle_hook_frees_pages () =
  (* A tiny vnode cache: recycling must terminate the embedded object and
     free its pages. *)
  let sys, vm = mk ~max_vnodes:2 () in
  let physmem = (S.machine sys).Vmiface.Machine.physmem in
  let vn = Vfs.create_file (vfs sys) ~name:"/a" ~size:16384 in
  let vpn = S.mmap sys vm ~npages:4 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.access_range sys vm ~vpn ~npages:4 Vt.Read;
  S.munmap sys vm ~vpn ~npages:4;
  Vfs.vrele (vfs sys) vn;
  let free0 = Physmem.free_count physmem in
  (* Force recycling by cycling other vnodes through the cache. *)
  let b = Vfs.create_file (vfs sys) ~name:"/b" ~size:4096 in
  Vfs.vrele (vfs sys) b;
  let c = Vfs.create_file (vfs sys) ~name:"/c" ~size:4096 in
  Vfs.vrele (vfs sys) c;
  Alcotest.(check bool) "vnode /a recycled" true
    ((stats sys).Sim.Stats.vnode_recycles > 0);
  Alcotest.(check bool) "its file pages were freed" true
    (Physmem.free_count physmem >= free0 + 4);
  Alcotest.(check bool) "vm_private cleared" true
    (Uvm.Vnode_pager.uvn_of_vnode vn = None)

let test_dirty_shared_pages_flushed_on_recycle () =
  let sys, vm = mk ~max_vnodes:2 () in
  let vn = Vfs.create_file (vfs sys) ~name:"/d" ~size:8192 in
  let vpn = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.rw ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.write_bytes sys vm ~addr:(vpn * 4096) (Bytes.of_string "durable");
  S.munmap sys vm ~vpn ~npages:2;
  Vfs.vrele (vfs sys) vn;
  (* Recycle /d by cache pressure; the dirty page must reach the file. *)
  let x = Vfs.create_file (vfs sys) ~name:"/x" ~size:4096 in
  Vfs.vrele (vfs sys) x;
  let y = Vfs.create_file (vfs sys) ~name:"/y" ~size:4096 in
  Vfs.vrele (vfs sys) y;
  Alcotest.(check string) "write-back on terminate" "durable"
    (Vfs.read_file (vfs sys) vn ~off:0 ~len:7);
  (* And a fresh mapping reads the flushed data back from "disk". *)
  let vn2 = Vfs.lookup (vfs sys) ~name:"/d" in
  let vpn2 = S.mmap sys vm ~npages:2 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn2, 0)) in
  Alcotest.(check string) "round-trip through recycle" "durable"
    (Bytes.to_string (S.read_bytes sys vm ~addr:(vpn2 * 4096) ~len:7))

let test_mapped_vnode_cannot_be_recycled () =
  let sys, vm = mk ~max_vnodes:1 () in
  let vn = Vfs.create_file (vfs sys) ~name:"/held" ~size:4096 in
  let vpn = S.mmap sys vm ~npages:1 ~prot:Pmap.Prot.read ~share:Vt.Shared (Vt.File (vn, 0)) in
  S.touch sys vm ~vpn Vt.Read;
  Vfs.vrele (vfs sys) vn (* drop the open ref; the mapping's ref remains *);
  (* Cache pressure cannot evict a mapped vnode. *)
  let z = Vfs.create_file (vfs sys) ~name:"/z" ~size:4096 in
  Vfs.vrele (vfs sys) z;
  Alcotest.(check bool) "still in core" true vn.Vfs.Vnode.incore;
  Alcotest.(check string) "mapping still valid"
    (String.make 1 (Vfs.file_byte ~name:"/held" ~off:0))
    (Bytes.to_string (S.read_bytes sys vm ~addr:(vpn * 4096) ~len:1))

let () =
  Alcotest.run "unified_cache"
    [
      ( "persistence",
        [
          Alcotest.test_case "pages persist after unmap" `Quick test_pages_persist_after_unmap;
          Alcotest.test_case "no extra vnode ref" `Quick test_vnode_holds_no_extra_ref_when_unmapped;
          Alcotest.test_case "mapped vnode pinned" `Quick test_mapped_vnode_cannot_be_recycled;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "hook frees pages" `Quick test_recycle_hook_frees_pages;
          Alcotest.test_case "dirty flush on recycle" `Quick test_dirty_shared_pages_flushed_on_recycle;
        ] );
    ]
