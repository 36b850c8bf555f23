(* Swap: the contiguous slot allocator and the paging device. *)

let test_swapmap_basic () =
  let m = Swap.Swapmap.create ~nslots:16 in
  Alcotest.(check int) "capacity" 16 (Swap.Swapmap.capacity m);
  (match Swap.Swapmap.alloc m ~n:4 with
  | Some s ->
      Alcotest.(check bool) "slot >= 1" true (s >= 1);
      Alcotest.(check int) "in use" 4 (Swap.Swapmap.in_use m);
      Alcotest.(check bool) "allocated" true (Swap.Swapmap.is_allocated m ~slot:s);
      Swap.Swapmap.free m ~slot:s ~n:4;
      Alcotest.(check int) "freed" 0 (Swap.Swapmap.in_use m)
  | None -> Alcotest.fail "alloc failed")

let test_swapmap_contiguity () =
  let m = Swap.Swapmap.create ~nslots:16 in
  (* Fragment: allocate singles, free every other one. *)
  let slots = List.init 16 (fun _ -> Option.get (Swap.Swapmap.alloc m ~n:1)) in
  List.iteri (fun i s -> if i mod 2 = 0 then Swap.Swapmap.free m ~slot:s ~n:1) slots;
  Alcotest.(check bool) "no contiguous pair" true (Swap.Swapmap.alloc m ~n:2 = None);
  Alcotest.(check bool) "single fits" true (Swap.Swapmap.alloc m ~n:1 <> None)

let test_swapmap_exhaustion () =
  let m = Swap.Swapmap.create ~nslots:8 in
  Alcotest.(check bool) "full run ok" true (Swap.Swapmap.alloc m ~n:8 <> None);
  Alcotest.(check bool) "exhausted" true (Swap.Swapmap.alloc m ~n:1 = None)

let test_swapmap_errors () =
  let m = Swap.Swapmap.create ~nslots:8 in
  let s = Option.get (Swap.Swapmap.alloc m ~n:2) in
  Swap.Swapmap.free m ~slot:s ~n:2;
  Alcotest.check_raises "double free"
    (Invalid_argument "Swapmap.free: slot not allocated") (fun () ->
      Swap.Swapmap.free m ~slot:s ~n:2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Swapmap.free: slot range out of bounds") (fun () ->
      Swap.Swapmap.free m ~slot:7 ~n:5)

(* Property: in_use always equals the number of allocated slots, and
   allocated runs never overlap. *)
let prop_swapmap_accounting =
  QCheck.Test.make ~name:"swapmap accounting" ~count:100
    QCheck.(list (int_range 1 5))
    (fun sizes ->
      let m = Swap.Swapmap.create ~nslots:64 in
      let held = ref [] in
      List.iteri
        (fun i n ->
          if i mod 3 = 2 then (
            match !held with
            | (s, k) :: rest ->
                Swap.Swapmap.free m ~slot:s ~n:k;
                held := rest
            | [] -> ())
          else
            match Swap.Swapmap.alloc m ~n with
            | Some s -> held := (s, n) :: !held
            | None -> ())
        sizes;
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 !held in
      let no_overlap =
        List.for_all
          (fun (s1, n1) ->
            List.for_all
              (fun (s2, n2) ->
                (s1 = s2 && n1 = n2) || s1 + n1 <= s2 || s2 + n2 <= s1)
              !held)
          !held
      in
      Swap.Swapmap.in_use m = total && no_overlap)

let io_ok = function
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected I/O error: %s" (Sim.Fault_plan.string_of_error e)

let mk_dev ?(page_size = 256) () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let dev =
    Swap.Swapdev.create ~nslots:64 ~page_size ~clock
      ~costs:Sim.Cost_model.default ~stats ()
  in
  let pm =
    Physmem.create ~page_size ~npages:32 ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (dev, pm, clock, stats)

let test_swapdev_roundtrip () =
  let dev, pm, _, _ = mk_dev () in
  let mkpage c =
    let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
    Bytes.fill p.Physmem.Page.data 0 256 c;
    p.Physmem.Page.dirty <- true;
    p
  in
  let pages = [| mkpage 'a'; mkpage 'b'; mkpage 'c' |] in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:3) in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages ~n:3);
  Array.iter
    (fun (p : Physmem.Page.t) ->
      Alcotest.(check bool) "cleaned by write" false p.dirty)
    pages;
  let dst = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  io_ok (Swap.Swapdev.read_slot dev ~slot:(slot + 1) ~dst);
  Alcotest.(check char) "middle page restored" 'b' (Bytes.get dst.Physmem.Page.data 17);
  let dsts =
    [ Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ();
      Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () ]
  in
  io_ok (Swap.Swapdev.read_cluster dev ~slot ~dsts);
  Alcotest.(check char) "cluster page 0" 'a'
    (Bytes.get (List.nth dsts 0).Physmem.Page.data 0);
  Alcotest.(check char) "cluster page 1" 'b'
    (Bytes.get (List.nth dsts 1).Physmem.Page.data 0)

let test_swapdev_cluster_is_one_op () =
  let dev, pm, clock, _ = mk_dev () in
  let pages =
    Array.init 8 (fun _ -> Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())
  in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:8) in
  let t0 = Sim.Simclock.now clock in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages ~n:8);
  let c = Sim.Cost_model.default in
  Alcotest.(check (float 1e-6)) "one op + 8 transfers"
    (c.Sim.Cost_model.disk_op_latency +. (8.0 *. c.Sim.Cost_model.disk_page_transfer))
    (Sim.Simclock.now clock -. t0);
  Alcotest.(check int) "one write op" 1 (Sim.Disk.write_ops (Swap.Swapdev.disk dev))

let test_swapdev_free_discards () =
  let dev, pm, _, _ = mk_dev () in
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:1) in
  io_ok (Swap.Swapdev.write_cluster dev ~slot ~pages:[| p |] ~n:1);
  Swap.Swapdev.free_slots dev ~slot ~n:1;
  Alcotest.check_raises "data discarded"
    (Invalid_argument "Swapdev.read_slot: slot holds no data") (fun () ->
      ignore (Swap.Swapdev.read_slot dev ~slot ~dst:p))

(* -- the zero tag -------------------------------------------------- *)

module Sd = Swap.Swapdev

(* A read destination that is dirty in both senses: 0xAA in every byte,
   so a restore that leaves any byte unwritten shows, and the dirty bit
   set, so a restore must clear it. *)
let soil (p : Physmem.Page.t) =
  Bytes.fill p.data 0 (Bytes.length p.data) '\xAA';
  p.dirty <- true;
  p

let frame pm = soil (Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())

let all_bytes b c = Bytes.for_all (fun x -> x = c) b

let test_zero_page_restores_into_dirty_frame () =
  let dev, pm, _, stats = mk_dev () in
  let src = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill src.Physmem.Page.data 0 256 '\000';
  let slot = Option.get (Sd.alloc_slots dev ~n:2) in
  io_ok (Sd.write_cluster dev ~slot ~pages:[| src; src |] ~n:2);
  Alcotest.(check int) "both counted as zero pageouts" 2
    stats.Sim.Stats.swap_zero_pageouts;
  (match Sd.read_raw dev ~slot with
  | Ok Sd.Zero -> ()
  | Ok (Sd.Data _) -> Alcotest.fail "zero page stored as a copy"
  | Error _ -> Alcotest.fail "unexpected read error");
  let dst = frame pm in
  io_ok (Sd.read_slot dev ~slot ~dst);
  Alcotest.(check bool) "read_slot zeroes the frame" true
    (all_bytes dst.Physmem.Page.data '\000');
  let dsts = [ frame pm; frame pm ] in
  io_ok (Sd.read_cluster dev ~slot ~dsts);
  List.iter
    (fun (d : Physmem.Page.t) ->
      Alcotest.(check bool) "read_cluster zeroes the frame" true
        (all_bytes d.data '\000');
      Alcotest.(check bool) "clean" false d.dirty)
    dsts

(* The scan's last step is the byte tail (page size 100) or the last
   word of the last four-word block (page size 256). *)
let test_last_byte_is_data () =
  List.iter
    (fun page_size ->
      let dev, pm, _, stats = mk_dev ~page_size () in
      let src = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
      Bytes.fill src.Physmem.Page.data 0 page_size '\000';
      Bytes.set src.Physmem.Page.data (page_size - 1) '\x01';
      let slot = Option.get (Sd.alloc_slots dev ~n:1) in
      io_ok (Sd.write_cluster dev ~slot ~pages:[| src |] ~n:1);
      Alcotest.(check int) "not a zero pageout" 0 stats.Sim.Stats.swap_zero_pageouts;
      (match Sd.read_raw dev ~slot with
      | Ok (Sd.Data _) -> ()
      | Ok Sd.Zero -> Alcotest.failf "page size %d: last byte lost to a tag" page_size
      | Error _ -> Alcotest.fail "unexpected read error");
      let dst = frame pm in
      io_ok (Sd.read_slot dev ~slot ~dst);
      Alcotest.(check bytes) "round trip" src.Physmem.Page.data dst.Physmem.Page.data)
    [ 256; 100 ]

let test_capture_zero_allocates_nothing () =
  let page = Bytes.make 4096 '\000' in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Sd.capture page))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "1000 zero captures allocate %.0f words" words)
    true (words < 100.)

(* A failed transfer moves no contents: each slot keeps its previous tag
   or copy, and the pages that failed to go out stay dirty. *)
let test_failed_write_keeps_contents () =
  let dev, pm, _, _ = mk_dev () in
  let zero = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill zero.Physmem.Page.data 0 256 '\000';
  let data = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill data.Physmem.Page.data 0 256 'd';
  let slot = Option.get (Sd.alloc_slots dev ~n:2) in
  io_ok (Sd.write_cluster dev ~slot ~pages:[| zero; data |] ~n:2);
  let plan = Sim.Fault_plan.create () in
  Sim.Disk.set_fault_plan (Sd.disk dev) (Some plan);
  (* Swap the two: the zero slot would become data and vice versa. *)
  zero.Physmem.Page.dirty <- true;
  data.Physmem.Page.dirty <- true;
  Sim.Fault_plan.fail_op plan Sim.Fault_plan.Write Sim.Fault_plan.Transient;
  (match Sd.write_cluster dev ~slot ~pages:[| data; zero |] ~n:2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "scripted write failure did not fire");
  Alcotest.(check bool) "pages stay dirty" true
    (zero.Physmem.Page.dirty && data.Physmem.Page.dirty);
  Sim.Fault_plan.fail_op plan Sim.Fault_plan.Write Sim.Fault_plan.Transient;
  (match Sd.write_raw dev ~slot:(slot + 1) Sd.Zero with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "scripted raw write failure did not fire");
  Sim.Disk.set_fault_plan (Sd.disk dev) None;
  let dsts = [ frame pm; frame pm ] in
  io_ok (Sd.read_cluster dev ~slot ~dsts);
  Alcotest.(check bool) "zero slot still zero" true
    (all_bytes (List.nth dsts 0).Physmem.Page.data '\000');
  Alcotest.(check bool) "data slot still data" true
    (all_bytes (List.nth dsts 1).Physmem.Page.data 'd')

(* The store against a [Bytes] model: the model maps each slot that holds
   data to its page, and every read lands in a soiled frame. *)
type kind = Zeros | One of int * int | Noise of int

type sop =
  | Alloc of int
  | Write of int * kind list  (** run index, pages *)
  | Read of int
  | Read_cluster of int * int
  | Free of int  (** run index *)
  | Bad of int
  | Write_raw of int * kind
  | Read_raw of int * int  (** read one slot, re-store its contents in another *)

let nslots = 12

let page_of ps = function
  | Zeros -> Bytes.make ps '\000'
  | One (off, v) ->
      let b = Bytes.make ps '\000' in
      Bytes.set b off (Char.chr v);
      b
  | Noise seed ->
      let st = Random.State.make [| seed |] in
      Bytes.init ps (fun _ -> Char.chr (Random.State.int st 256))

let string_of_kind = function
  | Zeros -> "Z"
  | One (o, v) -> Printf.sprintf "One(%d,%d)" o v
  | Noise s -> Printf.sprintf "N%d" s

let string_of_sop = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Write (r, ks) ->
      Printf.sprintf "write run%d [%s]" r (String.concat "," (List.map string_of_kind ks))
  | Read s -> Printf.sprintf "read %d" s
  | Read_cluster (s, n) -> Printf.sprintf "read_cluster %d+%d" s n
  | Free r -> Printf.sprintf "free run%d" r
  | Bad s -> Printf.sprintf "bad %d" s
  | Write_raw (s, k) -> Printf.sprintf "write_raw %d %s" s (string_of_kind k)
  | Read_raw (s, d) -> Printf.sprintf "read_raw %d -> %d" s d

let prop_store_matches_model =
  let gen =
    QCheck.Gen.(
      let* ps = oneofl [ 100; 256; 4096 ] in
      let kind =
        frequency
          [
            (3, return Zeros);
            ( 2,
              pair (oneof [ return (ps - 1); int_bound (ps - 1) ]) (int_range 1 255)
              >|= fun (o, v) -> One (o, v) );
            (1, int_bound 10_000 >|= fun s -> Noise s);
          ]
      in
      let slot = int_range 1 nslots in
      let op =
        frequency
          [
            (3, int_range 1 4 >|= fun n -> Alloc n);
            ( 4,
              pair (int_bound 7) (list_size (int_range 1 4) kind) >|= fun (r, ks) ->
              Write (r, ks) );
            (2, slot >|= fun s -> Read s);
            (2, pair slot (int_range 1 4) >|= fun (s, n) -> Read_cluster (s, n));
            (2, int_bound 7 >|= fun r -> Free r);
            (1, slot >|= fun s -> Bad s);
            (2, pair slot kind >|= fun (s, k) -> Write_raw (s, k));
            (2, pair slot slot >|= fun (s, d) -> Read_raw (s, d));
          ]
      in
      let* ops = list_size (int_range 1 40) op in
      return (ps, ops))
  in
  let print (ps, ops) =
    Printf.sprintf "page_size=%d [%s]" ps (String.concat "; " (List.map string_of_sop ops))
  in
  QCheck.Test.make ~name:"swap store matches a bytes model" ~count:300
    (QCheck.make ~print gen) (fun (ps, ops) ->
      let clock = Sim.Simclock.create () in
      let stats = Sim.Stats.create () in
      let costs = Sim.Cost_model.zero in
      let dev = Sd.create ~nslots ~page_size:ps ~clock ~costs ~stats () in
      let pm = Physmem.create ~page_size:ps ~npages:16 ~clock ~costs ~stats () in
      let frames () =
        Array.init 4 (fun _ -> Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())
      in
      let srcs = frames () and dsts = frames () in
      let model : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
      let allocated = Array.make (nslots + 1) false in
      let bad = Array.make (nslots + 1) false in
      let runs = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let dirty_dst i = soil dsts.(i) in
      let expect_invalid what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> fail "%s: expected Invalid_argument" what
      in
      let check_frame slot (d : Physmem.Page.t) =
        if not (Bytes.equal d.data (Hashtbl.find model slot)) then
          fail "slot %d: restored bytes differ from the model" slot;
        if d.dirty then fail "slot %d: restored frame left dirty" slot
      in
      let step op =
        match op with
        | Alloc n -> (
            match Sd.alloc_slots dev ~n with
            | None -> ()
            | Some base ->
                for s = base to base + n - 1 do
                  if allocated.(s) then fail "alloc handed out live slot %d" s;
                  allocated.(s) <- true
                done;
                runs := !runs @ [ (base, n) ])
        | Write (r, kinds) -> (
            match List.nth_opt !runs r with
            | None -> ()
            | Some (base, len) ->
                let kinds = List.filteri (fun i _ -> i < len) kinds in
                let pages =
                  List.mapi
                    (fun i k ->
                      let p = srcs.(i) in
                      Bytes.blit (page_of ps k) 0 p.Physmem.Page.data 0 ps;
                      p.Physmem.Page.dirty <- true;
                      p)
                    kinds
                in
                let zeros0 = stats.Sim.Stats.swap_zero_pageouts in
                (match
                   Sd.write_cluster dev ~slot:base ~pages:(Array.of_list pages)
                     ~n:(List.length pages)
                 with
                | Error _ -> fail "write_cluster failed with no fault plan"
                | Ok () -> ());
                let nzero =
                  List.length (List.filter (fun k -> all_bytes (page_of ps k) '\000') kinds)
                in
                if stats.Sim.Stats.swap_zero_pageouts - zeros0 <> nzero then
                  fail "zero pageouts counted %d, expected %d"
                    (stats.Sim.Stats.swap_zero_pageouts - zeros0) nzero;
                List.iteri
                  (fun i (p : Physmem.Page.t) ->
                    if p.dirty then fail "written page left dirty";
                    Hashtbl.replace model (base + i) (Bytes.copy p.data))
                  pages)
        | Read s ->
            let dst = dirty_dst 0 in
            if Hashtbl.mem model s then begin
              (match Sd.read_slot dev ~slot:s ~dst with
              | Error _ -> fail "read_slot failed with no fault plan"
              | Ok () -> ());
              check_frame s dst
            end
            else expect_invalid "read_slot" (fun () -> Sd.read_slot dev ~slot:s ~dst)
        | Read_cluster (s, n) ->
            let ds = List.init n dirty_dst in
            if List.for_all (fun i -> Hashtbl.mem model (s + i)) (List.init n Fun.id)
            then begin
              (match Sd.read_cluster dev ~slot:s ~dsts:ds with
              | Error _ -> fail "read_cluster failed with no fault plan"
              | Ok () -> ());
              List.iteri (fun i d -> check_frame (s + i) d) ds
            end
            else
              expect_invalid "read_cluster" (fun () ->
                  Sd.read_cluster dev ~slot:s ~dsts:ds)
        | Free r -> (
            match List.nth_opt !runs r with
            | None -> ()
            | Some (base, n) ->
                Sd.free_slots dev ~slot:base ~n;
                for s = base to base + n - 1 do
                  allocated.(s) <- false;
                  Hashtbl.remove model s
                done;
                runs := List.filter (fun (b, _) -> b <> base) !runs)
        | Bad s ->
            (* Idempotent: only the first marking discards the contents. *)
            if Sd.mark_bad dev ~slot:s = bad.(s) then
              fail "mark_bad %d: wrong first-marking result" s;
            if not bad.(s) then Hashtbl.remove model s;
            bad.(s) <- true
        | Write_raw (s, k) ->
            let page = page_of ps k in
            if allocated.(s) then begin
              (match Sd.write_raw dev ~slot:s (Sd.capture page) with
              | Error _ -> fail "write_raw failed with no fault plan"
              | Ok () -> ());
              Hashtbl.replace model s page
            end
            else
              expect_invalid "write_raw" (fun () ->
                  Sd.write_raw dev ~slot:s (Sd.capture page))
        | Read_raw (s, d) ->
            if not (Hashtbl.mem model s) then
              expect_invalid "read_raw" (fun () -> Sd.read_raw dev ~slot:s)
            else begin
              let c =
                match Sd.read_raw dev ~slot:s with
                | Error _ -> fail "read_raw failed with no fault plan"
                | Ok c -> c
              in
              let expected = Hashtbl.find model s in
              (match c with
              | Sd.Zero when not (all_bytes expected '\000') ->
                  fail "slot %d: nonzero page stored as the zero tag" s
              | Sd.Data _ when all_bytes expected '\000' ->
                  fail "slot %d: zero page stored as a copy" s
              | _ -> ());
              let dst = dirty_dst 0 in
              Sd.restore dev c ~dst;
              check_frame s dst;
              (* Re-store the shared value elsewhere, as drain migration does. *)
              if allocated.(d) then begin
                (match Sd.write_raw dev ~slot:d c with
                | Error _ -> fail "write_raw failed with no fault plan"
                | Ok () -> ());
                Hashtbl.replace model d (Bytes.copy expected)
              end
            end
      in
      List.iter
        (fun op ->
          step op;
          for s = 1 to nslots do
            if Sd.has_data dev ~slot:s <> Hashtbl.mem model s then
              fail "after %s: has_data slot %d is %b" (string_of_sop op) s
                (Sd.has_data dev ~slot:s)
          done)
        ops;
      true)

(* The slot-indexed store against the hash table it replaced: the
   reference keeps each slot's stored value in a [Hashtbl], as the device
   once did, and after every operation the device and the reference
   agree on every slot, the two just outside the device included.  A raw
   write shares its value, so a raw read returns that very value. *)
type hop =
  | H_alloc of int
  | H_write of int * bool list  (** run index; per page, whether all zeros *)
  | H_free of int  (** run index *)
  | H_bad of int
  | H_write_raw of int * bool
  | H_read_raw of int

let string_of_hop = function
  | H_alloc n -> Printf.sprintf "alloc %d" n
  | H_write (r, zs) ->
      Printf.sprintf "write run%d [%s]" r
        (String.concat "," (List.map (fun z -> if z then "Z" else "D") zs))
  | H_free r -> Printf.sprintf "free run%d" r
  | H_bad s -> Printf.sprintf "bad %d" s
  | H_write_raw (s, z) -> Printf.sprintf "write_raw %d %s" s (if z then "Z" else "D")
  | H_read_raw s -> Printf.sprintf "read_raw %d" s

let same_contents a b =
  match (a, b) with
  | Sd.Zero, Sd.Zero -> true
  | Sd.Data x, Sd.Data y -> Bytes.equal x y
  | _ -> false

let prop_store_matches_hashtbl =
  let ps = 256 in
  let gen =
    QCheck.Gen.(
      let slot = int_range 0 (nslots + 1) in
      let op =
        frequency
          [
            (3, int_range 1 4 >|= fun n -> H_alloc n);
            ( 4,
              pair (int_bound 7) (list_size (int_range 1 4) bool) >|= fun (r, zs) ->
              H_write (r, zs) );
            (2, int_bound 7 >|= fun r -> H_free r);
            (1, int_range 1 nslots >|= fun s -> H_bad s);
            (2, pair slot bool >|= fun (s, z) -> H_write_raw (s, z));
            (3, slot >|= fun s -> H_read_raw s);
          ]
      in
      list_size (int_range 1 50) op)
  in
  let print ops = String.concat "; " (List.map string_of_hop ops) in
  QCheck.Test.make ~name:"array store matches a Hashtbl store" ~count:300
    (QCheck.make ~print gen) (fun ops ->
      let clock = Sim.Simclock.create () in
      let stats = Sim.Stats.create () in
      let costs = Sim.Cost_model.zero in
      let dev = Sd.create ~nslots ~page_size:ps ~clock ~costs ~stats () in
      let pm = Physmem.create ~page_size:ps ~npages:16 ~clock ~costs ~stats () in
      let srcs =
        Array.init 4 (fun _ -> Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 ())
      in
      let reference : (int, Sd.contents) Hashtbl.t = Hashtbl.create 16 in
      let runs = ref [] in
      let stamp = ref 0 in
      (* A page's bytes: all zeros, or a fresh nonzero byte throughout. *)
      let fill b zero =
        incr stamp;
        Bytes.fill b 0 ps (if zero then '\000' else Char.chr (1 + (!stamp mod 255)))
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let read_raw s =
        match Sd.read_raw dev ~slot:s with
        | Ok c -> c
        | Error _ -> fail "read_raw %d failed with no fault plan" s
      in
      let step = function
        | H_alloc n -> (
            match Sd.alloc_slots dev ~n with
            | None -> ()
            | Some base -> runs := !runs @ [ (base, n) ])
        | H_write (r, zeros) -> (
            match List.nth_opt !runs r with
            | None -> ()
            | Some (base, len) ->
                let zeros = List.filteri (fun i _ -> i < len) zeros in
                List.iteri
                  (fun i z ->
                    fill srcs.(i).Physmem.Page.data z;
                    srcs.(i).Physmem.Page.dirty <- true)
                  zeros;
                let n = List.length zeros in
                (match Sd.write_cluster dev ~slot:base ~pages:srcs ~n with
                | Error _ -> fail "write_cluster failed with no fault plan"
                | Ok () -> ());
                for i = 0 to n - 1 do
                  Hashtbl.replace reference (base + i)
                    (Sd.capture srcs.(i).Physmem.Page.data)
                done)
        | H_free r -> (
            match List.nth_opt !runs r with
            | None -> ()
            | Some (base, n) ->
                Sd.free_slots dev ~slot:base ~n;
                for s = base to base + n - 1 do
                  Hashtbl.remove reference s
                done;
                runs := List.filter (fun (b, _) -> b <> base) !runs)
        | H_bad s -> if Sd.mark_bad dev ~slot:s then Hashtbl.remove reference s
        | H_write_raw (s, z) ->
            let c =
              if z then Sd.Zero
              else begin
                let b = Bytes.create ps in
                fill b false;
                Sd.Data b
              end
            in
            if Sd.is_allocated_slot dev ~slot:s then begin
              (match Sd.write_raw dev ~slot:s c with
              | Error _ -> fail "write_raw failed with no fault plan"
              | Ok () -> ());
              Hashtbl.replace reference s c;
              if read_raw s != c then fail "slot %d: a raw write is not shared" s
            end
            else begin
              match Sd.write_raw dev ~slot:s c with
              | exception Invalid_argument _ -> ()
              | _ -> fail "write_raw %d: an unallocated slot took data" s
            end
        | H_read_raw s -> (
            match Hashtbl.find_opt reference s with
            | Some c ->
                if not (same_contents (read_raw s) c) then
                  fail "slot %d: read_raw differs from the reference" s
            | None -> (
                match Sd.read_raw dev ~slot:s with
                | exception Invalid_argument _ -> ()
                | _ -> fail "read_raw %d: an empty slot returned data" s))
      in
      List.iter
        (fun op ->
          step op;
          for s = 0 to nslots + 1 do
            match Hashtbl.find_opt reference s with
            | None ->
                if Sd.has_data dev ~slot:s then
                  fail "after %s: slot %d has data the reference lacks"
                    (string_of_hop op) s
            | Some c ->
                if not (Sd.has_data dev ~slot:s && same_contents (read_raw s) c)
                then
                  fail "after %s: slot %d differs from the reference"
                    (string_of_hop op) s
          done)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Swaptier: priority allocation, device death, drain, swapcache      *)
(* ------------------------------------------------------------------ *)

module St = Swap.Swaptier

let spec name pages prio =
  { St.tier_name = name; tier_pages = pages; tier_priority = prio; tier_costs = None }

let mk_tiers specs =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let t =
    St.create ~specs ~page_size:256 ~clock ~costs:Sim.Cost_model.default ~stats
  in
  let pm =
    Physmem.create ~page_size:256 ~npages:64 ~clock
      ~costs:Sim.Cost_model.zero ~stats ()
  in
  (t, pm, stats)

let tier_page pm c =
  let p = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill p.Physmem.Page.data 0 256 c;
  p.Physmem.Page.dirty <- true;
  p

let tier_named t name =
  List.find (fun ti -> ti.St.ti_name = name) (St.tiers t)

let test_tier_priority_and_striping () =
  let t, _, _ = mk_tiers [ spec "fast" 4 0; spec "slowa" 8 1; spec "slowb" 8 1 ] in
  Alcotest.(check int) "aggregate capacity" 20 (St.capacity t);
  (* The fast tier fills first; its global slots are 1..4. *)
  for _ = 1 to 4 do
    let s = Option.get (St.alloc_slots t ~n:1) in
    Alcotest.(check bool) "fast tier first" true (s >= 1 && s <= 4)
  done;
  (* Then the equal-priority band, striped between its two devices. *)
  for _ = 1 to 4 do
    let s = Option.get (St.alloc_slots t ~n:1) in
    Alcotest.(check bool) "spilled past fast" true (s > 4)
  done;
  Alcotest.(check int) "striped: slowa" 2 (tier_named t "slowa").St.ti_in_use;
  Alcotest.(check int) "striped: slowb" 2 (tier_named t "slowb").St.ti_in_use

let test_tier_death_failover () =
  let t, pm, stats = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let pages = [| tier_page pm 'a'; tier_page pm 'b' |] in
  let slot = Option.get (St.alloc_slots t ~n:2) in
  io_ok (St.write_cluster t ~slot ~pages ~n:2);
  St.kill_device t ~name:"fast";
  St.kill_device t ~name:"fast" (* idempotent *);
  Alcotest.(check bool) "dead" false (St.device_alive t ~name:"fast");
  Alcotest.(check int) "one death counted" 1 stats.Sim.Stats.swap_devices_dead;
  Alcotest.(check int) "only the slow tier allocates" 16 (St.slots_usable t);
  Alcotest.(check bool) "whole device blacklisted" true (St.is_bad_slot t ~slot);
  (* Dying media: writes fail permanently, reads still served. *)
  (match St.write_cluster t ~slot ~pages ~n:2 with
  | Error { Sim.Fault_plan.severity = Sim.Fault_plan.Permanent; _ } -> ()
  | _ -> Alcotest.fail "write to dead device must fail permanently");
  let dst = tier_page pm ' ' in
  io_ok (St.read_slot t ~slot ~dst);
  Alcotest.(check char) "drain window read" 'a' (Bytes.get dst.Physmem.Page.data 0);
  (* write_resilient fails over to the slow tier and rebinds the owner. *)
  let bound = ref slot in
  (match
     St.write_resilient t ~retries:2 ~backoff_us:10.0 ~slot
       ~assign:(fun s -> bound := s)
       ~pages ~n:2
   with
  | St.Reassigned fresh ->
      Alcotest.(check int) "owner rebound" fresh !bound;
      Alcotest.(check bool) "landed on the slow device" true (fresh > 8)
  | _ -> Alcotest.fail "expected cross-tier reassignment");
  Alcotest.(check int) "failover counted" 1 stats.Sim.Stats.swap_failovers;
  io_ok (St.read_slot t ~slot:(!bound + 1) ~dst);
  Alcotest.(check char) "data survived failover" 'b'
    (Bytes.get dst.Physmem.Page.data 0)

(* The No_space rung: reassignment with no healthy slot anywhere. *)
let test_tier_no_space () =
  let t, pm, stats = mk_tiers [ spec "fast" 4 0; spec "slow" 4 1 ] in
  let pages = [| tier_page pm 'x' |] in
  let slot = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot ~pages ~n:1);
  (* Exhaust every remaining slot, then kill the device holding ours. *)
  while St.alloc_slots t ~n:1 <> None do () done;
  St.kill_device t ~name:"fast";
  (match
     St.write_resilient t ~retries:2 ~backoff_us:10.0 ~slot
       ~assign:(fun _ -> Alcotest.fail "no slot to assign")
       ~pages ~n:1
   with
  | St.No_space { Sim.Fault_plan.severity = Sim.Fault_plan.Permanent; _ } -> ()
  | _ -> Alcotest.fail "expected No_space");
  Alcotest.(check bool) "degradation counted" true
    (stats.Sim.Stats.swap_full_events >= 1)

let test_tier_drain_migration () =
  let t, pm, stats = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let s1 = Option.get (St.alloc_slots t ~n:1) in
  let s2 = Option.get (St.alloc_slots t ~n:1) in
  let s3 = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot:s1 ~pages:[| tier_page pm 'p' |] ~n:1);
  io_ok (St.write_cluster t ~slot:s2 ~pages:[| tier_page pm 'q' |] ~n:1);
  (* s3 was never written: the drain drops it (owner rewrites later). *)
  let owned = ref [ s1; s2; s3 ] in
  St.set_drain_hook t
    (Some
       (fun () ->
         owned :=
           List.filter_map
             (fun s ->
               if not (St.slot_needs_drain t ~slot:s) then Some s
               else
                 match St.migrate_slot t ~slot:s with
                 | Some fresh ->
                     St.free_slots t ~slot:s ~n:1;
                     Some fresh
                 | None ->
                     St.free_slots t ~slot:s ~n:1;
                     None)
             !owned));
  St.kill_device t ~name:"fast";
  Alcotest.(check bool) "drain pending" true (St.drain_pending t);
  St.run_drain t;
  Alcotest.(check bool) "drain complete" false (St.drain_pending t);
  Alcotest.(check int) "two slots migrated" 2 stats.Sim.Stats.swap_migrations;
  Alcotest.(check int) "dead device owns nothing" 0
    (tier_named t "fast").St.ti_in_use;
  Alcotest.(check (option string)) "no undrained violation" None
    (St.undrained_violation t);
  (match !owned with
  | [ n1; n2 ] ->
      Alcotest.(check bool) "both on the slow device" true (n1 > 8 && n2 > 8);
      let dst = tier_page pm ' ' in
      io_ok (St.read_slot t ~slot:n1 ~dst);
      Alcotest.(check char) "first survivor" 'p' (Bytes.get dst.Physmem.Page.data 0);
      io_ok (St.read_slot t ~slot:n2 ~dst);
      Alcotest.(check char) "second survivor" 'q' (Bytes.get dst.Physmem.Page.data 0)
  | l -> Alcotest.failf "expected 2 rebound slots, got %d" (List.length l))

let test_swapoff_drains () =
  let t, pm, _ = mk_tiers [ spec "fast" 8 0; spec "slow" 16 1 ] in
  let slot = Option.get (St.alloc_slots t ~n:1) in
  io_ok (St.write_cluster t ~slot ~pages:[| tier_page pm 'v' |] ~n:1);
  let bound = ref slot in
  St.set_drain_hook t
    (Some
       (fun () ->
         if St.slot_needs_drain t ~slot:!bound then
           match St.migrate_slot t ~slot:!bound with
           | Some fresh ->
               St.free_slots t ~slot:!bound ~n:1;
               bound := fresh
           | None -> ()));
  (* Administrative removal: drains synchronously, media stays healthy. *)
  St.swapoff t ~name:"fast";
  Alcotest.(check bool) "media still alive" true (St.device_alive t ~name:"fast");
  Alcotest.(check bool) "nothing left to drain" false (St.drain_pending t);
  Alcotest.(check bool) "slot moved off" true (!bound > 8);
  Alcotest.(check int) "out of the pool" 16 (St.slots_usable t)

let test_swapcache_basics () =
  let t, pm, stats = mk_tiers [ spec "fast" 16 0; spec "slow" 32 1 ] in
  let page = tier_page pm 'z' in
  St.cache_put t ~vid:7 ~pgno:3 ~page;
  Alcotest.(check int) "one entry" 1 (St.cache_slots t);
  Alcotest.(check int) "fill counted" 1 stats.Sim.Stats.swap_cache_fills;
  Alcotest.(check int) "cached on the fast tier" 1
    (tier_named t "fast").St.ti_cache_slots;
  Alcotest.(check bool) "contains" true (St.cache_contains t ~vid:7 ~pgno:3);
  let dst = tier_page pm ' ' in
  Alcotest.(check bool) "hit" true (St.cache_lookup t ~vid:7 ~pgno:3 ~dst);
  Alcotest.(check char) "served the bytes" 'z' (Bytes.get dst.Physmem.Page.data 9);
  Alcotest.(check bool) "served clean" false dst.Physmem.Page.dirty;
  Alcotest.(check int) "hit counted" 1 stats.Sim.Stats.swap_cache_hits;
  Alcotest.(check bool) "miss on other page" false
    (St.cache_lookup t ~vid:7 ~pgno:4 ~dst);
  St.cache_invalidate t ~vid:7 ~pgno:3;
  Alcotest.(check int) "invalidated" 0 (St.cache_slots t);
  Alcotest.(check int) "slot released" 0 (St.slots_in_use t);
  (* Audit view and single-tier inertness. *)
  St.cache_put t ~vid:9 ~pgno:1 ~page;
  Alcotest.(check int) "one claim" 1 (List.length (St.cache_claims t));
  let single, _, sstats = mk_tiers [ spec "only" 32 0 ] in
  St.cache_put single ~vid:1 ~pgno:0 ~page;
  Alcotest.(check int) "single tier: cache inert" 0 (St.cache_slots single);
  Alcotest.(check int) "single tier: no fill" 0 sstats.Sim.Stats.swap_cache_fills

(* Graceful degradation, first rung: slot pressure sheds cache entries
   before any allocation fails. *)
let test_swapcache_shed_under_pressure () =
  let t, pm, stats = mk_tiers [ spec "fast" 16 0; spec "slow" 4 1 ] in
  let page = tier_page pm 'c' in
  for pgno = 0 to 2 do
    St.cache_put t ~vid:1 ~pgno ~page
  done;
  Alcotest.(check int) "three entries" 3 (St.cache_slots t);
  (* 20 slots total, 3 held by the cache: the 18th allocation only fits
     by shedding, and the cache drains entirely before alloc gives up. *)
  for _ = 1 to 20 do
    Alcotest.(check bool) "alloc sheds instead of failing" true
      (St.alloc_slots t ~n:1 <> None)
  done;
  Alcotest.(check int) "cache fully shed" 0 (St.cache_slots t);
  Alcotest.(check int) "evictions counted" 3 stats.Sim.Stats.swap_cache_evictions;
  Alcotest.(check bool) "then exhaustion" true (St.alloc_slots t ~n:1 = None)

let () =
  Alcotest.run "swap"
    [
      ( "swapmap",
        [
          Alcotest.test_case "basic" `Quick test_swapmap_basic;
          Alcotest.test_case "contiguity" `Quick test_swapmap_contiguity;
          Alcotest.test_case "exhaustion" `Quick test_swapmap_exhaustion;
          Alcotest.test_case "errors" `Quick test_swapmap_errors;
          QCheck_alcotest.to_alcotest prop_swapmap_accounting;
        ] );
      ( "swapdev",
        [
          Alcotest.test_case "roundtrip" `Quick test_swapdev_roundtrip;
          Alcotest.test_case "cluster one op" `Quick test_swapdev_cluster_is_one_op;
          Alcotest.test_case "free discards" `Quick test_swapdev_free_discards;
          Alcotest.test_case "zero page into dirty frame" `Quick
            test_zero_page_restores_into_dirty_frame;
          Alcotest.test_case "last byte is data" `Quick test_last_byte_is_data;
          Alcotest.test_case "zero capture allocates nothing" `Quick
            test_capture_zero_allocates_nothing;
          Alcotest.test_case "failed write keeps contents" `Quick
            test_failed_write_keeps_contents;
          QCheck_alcotest.to_alcotest prop_store_matches_model;
          QCheck_alcotest.to_alcotest prop_store_matches_hashtbl;
        ] );
      ( "swaptier",
        [
          Alcotest.test_case "priority and striping" `Quick
            test_tier_priority_and_striping;
          Alcotest.test_case "death and failover" `Quick test_tier_death_failover;
          Alcotest.test_case "no space" `Quick test_tier_no_space;
          Alcotest.test_case "drain migration" `Quick test_tier_drain_migration;
          Alcotest.test_case "swapoff drains" `Quick test_swapoff_drains;
          Alcotest.test_case "swapcache basics" `Quick test_swapcache_basics;
          Alcotest.test_case "swapcache shed" `Quick
            test_swapcache_shed_under_pressure;
        ] );
    ]
