(* The vnode layer: naming, reference counts, the free LRU, recycling
   hooks and paged file I/O. *)

let mk ?(max_vnodes = 4) () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let vfs =
    Vfs.create ~max_vnodes ~page_size:256 ~clock ~costs:Sim.Cost_model.zero
      ~stats ()
  in
  let pm =
    Physmem.create ~page_size:256 ~npages:64 ~clock ~costs:Sim.Cost_model.zero
      ~stats ()
  in
  (vfs, pm, stats)

let test_file_byte_deterministic () =
  Alcotest.(check char) "stable"
    (Vfs.file_byte ~name:"/a" ~off:123)
    (Vfs.file_byte ~name:"/a" ~off:123);
  Alcotest.(check bool) "names differ" true
    (List.exists
       (fun off -> Vfs.file_byte ~name:"/a" ~off <> Vfs.file_byte ~name:"/b" ~off)
       (List.init 64 Fun.id))

(* A new file's contents are generated a 256-byte run at a time; every
   byte must still equal the single-byte [file_byte] at its offset. *)
let test_filled_file_matches_file_byte () =
  let vfs, _, _ = mk ~max_vnodes:8 () in
  List.iter
    (fun name ->
      let size = 70_000 in
      let vn = Vfs.create_file vfs ~name ~size in
      let data = Vfs.read_file vfs vn ~off:0 ~len:size in
      for off = 0 to size - 1 do
        if data.[off] <> Vfs.file_byte ~name ~off then
          Alcotest.failf "%s: byte %d differs from file_byte" name off
      done)
    [ "/a"; "/b"; ""; "/usr/lib/libc.so.12"; String.make 300 'x' ]

let test_create_lookup () =
  let vfs, _, _ = mk () in
  let vn = Vfs.create_file vfs ~name:"/x" ~size:1000 in
  Alcotest.(check int) "one ref" 1 vn.Vfs.Vnode.usecount;
  Alcotest.(check int) "pattern" (Char.code (Vfs.file_byte ~name:"/x" ~off:5))
    (Char.code (Vfs.read_file vfs vn ~off:5 ~len:1).[0]);
  Alcotest.check_raises "duplicate create"
    (Invalid_argument "Vfs.create_file: /x exists") (fun () ->
      ignore (Vfs.create_file vfs ~name:"/x" ~size:10));
  let vn2 = Vfs.lookup vfs ~name:"/x" in
  Alcotest.(check bool) "same vnode" true (vn == vn2);
  Alcotest.(check int) "two refs" 2 vn.Vfs.Vnode.usecount;
  (try
     ignore (Vfs.lookup vfs ~name:"/nope");
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_lru_and_recycle () =
  let vfs, _, stats = mk ~max_vnodes:2 () in
  let a = Vfs.create_file vfs ~name:"/a" ~size:256 in
  let b = Vfs.create_file vfs ~name:"/b" ~size:256 in
  Vfs.vrele vfs a;
  Vfs.vrele vfs b;
  Alcotest.(check int) "both on free list" 2 (Vfs.free_list_length vfs);
  let recycled = ref [] in
  Vfs.register_recycle_hook vfs (fun vn -> recycled := vn.Vfs.Vnode.name :: !recycled);
  (* Creating a third file must recycle the LRU vnode (/a). *)
  let c = Vfs.create_file vfs ~name:"/c" ~size:256 in
  Alcotest.(check (list string)) "LRU recycled first" [ "/a" ] !recycled;
  Alcotest.(check bool) "a out of core" false a.Vfs.Vnode.incore;
  Alcotest.(check int) "recycles counted" 1 stats.Sim.Stats.vnode_recycles;
  (* Looking /a up again brings it back in core, recycling /b. *)
  let a2 = Vfs.lookup vfs ~name:"/a" in
  Alcotest.(check bool) "back in core" true a2.Vfs.Vnode.incore;
  Alcotest.(check (list string)) "b recycled next" [ "/b"; "/a" ] !recycled;
  Vfs.vrele vfs c;
  Vfs.vrele vfs a2

let test_ref_revives_from_lru () =
  let vfs, _, _ = mk () in
  let a = Vfs.create_file vfs ~name:"/a" ~size:256 in
  Vfs.vrele vfs a;
  Alcotest.(check int) "on lru" 1 (Vfs.free_list_length vfs);
  let a2 = Vfs.lookup vfs ~name:"/a" in
  Alcotest.(check int) "off lru" 0 (Vfs.free_list_length vfs);
  Alcotest.(check bool) "still in core (no recycle)" true a2.Vfs.Vnode.incore;
  Vfs.vref vfs a2;
  Alcotest.(check int) "vref" 2 a2.Vfs.Vnode.usecount;
  Vfs.vrele vfs a2;
  Vfs.vrele vfs a2;
  Alcotest.check_raises "over-release"
    (Invalid_argument "Vfs.vrele: no references") (fun () -> Vfs.vrele vfs a2)

let io_ok = function
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected I/O error: %s" (Sim.Fault_plan.string_of_error e)

let test_read_write_pages () =
  let vfs, pm, _ = mk () in
  let vn = Vfs.create_file vfs ~name:"/data" ~size:600 in
  let p0 = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let p1 = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let p2 = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  io_ok (Vfs.read_pages vfs vn ~start_page:0 ~dsts:[ p0; p1; p2 ]);
  Alcotest.(check char) "page0 contents" (Vfs.file_byte ~name:"/data" ~off:10)
    (Bytes.get p0.Physmem.Page.data 10);
  Alcotest.(check char) "page1 contents" (Vfs.file_byte ~name:"/data" ~off:266)
    (Bytes.get p1.Physmem.Page.data 10);
  (* Page 2 covers bytes 512..600; the tail past EOF must be zero. *)
  Alcotest.(check char) "zero past EOF" '\000' (Bytes.get p2.Physmem.Page.data 200);
  (* Write back modified data. *)
  Bytes.fill p0.Physmem.Page.data 0 256 'Z';
  p0.Physmem.Page.dirty <- true;
  io_ok (Vfs.write_pages vfs vn ~start_page:0 ~srcs:[ p0 ]);
  Alcotest.(check char) "file updated" 'Z' (Vfs.read_file vfs vn ~off:100 ~len:1).[0];
  Alcotest.(check bool) "page cleaned" false p0.Physmem.Page.dirty;
  Alcotest.(check int) "npages_of rounds up" 3 (Vfs.npages_of vfs vn)

let test_read_ahead_detection () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let vfs =
    Vfs.create ~page_size:256 ~clock ~costs:Sim.Cost_model.default ~stats ()
  in
  let pm =
    Physmem.create ~page_size:256 ~npages:64 ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  let vn = Vfs.create_file vfs ~name:"/seq" ~size:2048 in
  let page () = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let c = Sim.Cost_model.default in
  let t0 = Sim.Simclock.now clock in
  io_ok (Vfs.read_pages vfs vn ~start_page:0 ~dsts:[ page () ]);
  let first = Sim.Simclock.now clock -. t0 in
  Alcotest.(check (float 1e-6)) "first read seeks"
    (c.Sim.Cost_model.disk_op_latency +. c.Sim.Cost_model.disk_page_transfer)
    first;
  let t1 = Sim.Simclock.now clock in
  io_ok (Vfs.read_pages vfs vn ~start_page:1 ~dsts:[ page () ]);
  Alcotest.(check (float 1e-6)) "sequential read streams"
    c.Sim.Cost_model.disk_page_transfer
    (Sim.Simclock.now clock -. t1);
  let t2 = Sim.Simclock.now clock in
  io_ok (Vfs.read_pages vfs vn ~start_page:5 ~dsts:[ page () ]);
  Alcotest.(check (float 1e-6)) "non-sequential seeks again"
    (c.Sim.Cost_model.disk_op_latency +. c.Sim.Cost_model.disk_page_transfer)
    (Sim.Simclock.now clock -. t2)

(* The sparse store against a plain [Bytes] model of the file: the model
   starts as [file_byte] and takes every written page's bytes up to EOF.
   Each read must match the model, with zeros past EOF; since the model
   only changes where a page was written, the unwritten neighbours of a
   written page must stay canonical. *)
type op = Write of int * int * int | Read of int * int

let prop_sparse_store_matches_model =
  let gen =
    QCheck.Gen.(
      let* page_size = oneofl [ 256; 4096 ] in
      let* name = string_size ~gen:printable (int_range 0 12) in
      let* full = int_range 0 6 in
      let* tail = int_range 1 (page_size - 1) in
      let npages = full + 1 in
      let span = int_range 0 (npages - 1) >>= fun start ->
        int_range 1 (npages + 1 - start) >|= fun n -> (start, n) in
      let op =
        frequency
          [
            (1, span >>= fun (s, n) -> int_bound 255 >|= fun fill -> Write (s, n, fill));
            (2, span >|= fun (s, n) -> Read (s, n));
          ]
      in
      let* ops = list_size (int_range 1 20) op in
      return (page_size, name, (full * page_size) + tail, ops))
  in
  let print (page_size, name, size, ops) =
    Printf.sprintf "page_size=%d name=%S size=%d ops=[%s]" page_size name size
      (String.concat "; "
         (List.map
            (function
              | Write (s, n, f) -> Printf.sprintf "W(%d,%d,%d)" s n f
              | Read (s, n) -> Printf.sprintf "R(%d,%d)" s n)
            ops))
  in
  QCheck.Test.make ~name:"sparse store matches a bytes model" ~count:200
    (QCheck.make ~print gen) (fun (page_size, name, size, ops) ->
      let clock = Sim.Simclock.create () in
      let stats = Sim.Stats.create () in
      let costs = Sim.Cost_model.zero in
      let vfs = Vfs.create ~page_size ~clock ~costs ~stats () in
      let pm = Physmem.create ~page_size ~npages:16 ~clock ~costs ~stats () in
      let frames =
        Array.init 8 (fun _ -> Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())
      in
      let vn = Vfs.create_file vfs ~name ~size in
      let model = Bytes.init size (fun off -> Vfs.file_byte ~name ~off) in
      let frame_list n = List.init n (fun i -> frames.(i)) in
      List.iter
        (function
          | Write (start, n, fill) ->
              List.iteri
                (fun i (f : Physmem.Page.t) ->
                  Bytes.iteri
                    (fun j _ -> Bytes.set f.data j (Char.chr ((fill + i + (j * 7)) land 0xff)))
                    f.data;
                  let off = (start + i) * page_size in
                  let avail = max 0 (min page_size (size - off)) in
                  if avail > 0 then Bytes.blit f.data 0 model off avail)
                (frame_list n);
              io_ok (Vfs.write_pages vfs vn ~start_page:start ~srcs:(frame_list n))
          | Read (start, n) ->
              List.iter (fun (f : Physmem.Page.t) -> Bytes.fill f.data 0 page_size '\xaa')
                (frame_list n);
              io_ok (Vfs.read_pages vfs vn ~start_page:start ~dsts:(frame_list n));
              List.iteri
                (fun i (f : Physmem.Page.t) ->
                  let off = (start + i) * page_size in
                  let avail = max 0 (min page_size (size - off)) in
                  let want =
                    Bytes.cat (Bytes.sub model (min off size) avail)
                      (Bytes.make (page_size - avail) '\000')
                  in
                  if not (Bytes.equal want f.data) then
                    QCheck.Test.fail_reportf "page %d differs from the model" (start + i))
                (frame_list n))
        ops;
      Vfs.read_file vfs vn ~off:0 ~len:size = Bytes.to_string model)

(* No byte is filled at creation: a 4096-page file costs its page table
   of (mostly empty) written-page slots and a constant. *)
let test_create_allocates_per_page () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let vfs =
    Vfs.create ~page_size:4096 ~clock ~costs:Sim.Cost_model.zero ~stats ()
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let npages = 4096 in
  let before = words () in
  let vn = Vfs.create_file vfs ~name:"/big" ~size:(npages * 4096) in
  let per_page = (words () -. before) /. float_of_int npages in
  if per_page >= 64. then
    Alcotest.failf "create_file allocated %.1f words per page" per_page;
  Alcotest.(check int) "pages" npages (Vfs.npages_of vfs vn)

let test_recycle_skips_referenced () =
  let vfs, _, _ = mk ~max_vnodes:1 () in
  let a = Vfs.create_file vfs ~name:"/a" ~size:256 in
  (* /a still referenced: creating /b cannot recycle it. *)
  let b = Vfs.create_file vfs ~name:"/b" ~size:256 in
  Alcotest.(check bool) "a survives while referenced" true a.Vfs.Vnode.incore;
  Vfs.vrele vfs a;
  Vfs.vrele vfs b

let () =
  Alcotest.run "vfs"
    [
      ( "files",
        [
          Alcotest.test_case "deterministic bytes" `Quick test_file_byte_deterministic;
          Alcotest.test_case "filled file matches file_byte" `Quick
            test_filled_file_matches_file_byte;
          Alcotest.test_case "create/lookup" `Quick test_create_lookup;
          Alcotest.test_case "read/write pages" `Quick test_read_write_pages;
          Alcotest.test_case "create_file allocates per page" `Quick
            test_create_allocates_per_page;
          QCheck_alcotest.to_alcotest prop_sparse_store_matches_model;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru + recycle" `Quick test_lru_and_recycle;
          Alcotest.test_case "revive from lru" `Quick test_ref_revives_from_lru;
          Alcotest.test_case "referenced vnodes pinned" `Quick test_recycle_skips_referenced;
        ] );
      ( "io",
        [ Alcotest.test_case "read-ahead" `Quick test_read_ahead_detection ] );
    ]
