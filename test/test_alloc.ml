(* Allocation ledger: minor-heap words per operation, measured on fresh
   state for both kernels.  The simulator's hot paths are the clock, the
   resident access, the fault routine and the pageout path; these bounds
   keep them from growing allocations back.  The counts are
   deterministic, so a bound only moves when the code on the path
   changes.

   The bounds hold under the dev profile, which compiles every module
   [-opaque] (no cross-module inlining, so each float passed across a
   module boundary is boxed), and a fortiori under the release profile.
   A fault or pageout bound is the dev-profile measurement with 25%
   headroom.  The words per operation before and after the swap store
   became a slot-indexed array and the pageout path stopped building
   closures, lists and tuples (the fault rows moved with the store and
   with histogram buckets computed inline):

   | case                    |   UVM dev | UVM release |   BSD dev | BSD release |
   |-------------------------|-----------|-------------|-----------|-------------|
   | zero-fill write fault   |   45 → 45 |     31 → 29 |   47 → 47 |     31 → 29 |
   | vnode read fault        | 206 → 190 |   170 → 140 |   94 → 78 |     80 → 58 |
   | COW write fault         |   79 → 79 |     61 → 59 |   65 → 65 |     47 → 45 |
   | swap pagein fault       |   78 → 46 |     64 → 30 |   99 → 67 |     83 → 49 |
   | pageout, per page       |   73 → 16 |     70 → 11 |  195 → 23 |    191 → 13 |

   The swap device's zero-page transfers are shared by both kernels:
   [write_cluster] 26 → 2 words (dev) and 24 → 0 (release), [read_slot]
   9 → 2 and 7 → 0.  What is left under dev is the boxed clock charge.

   A pipe row is the words per one-page send and receive through a
   pipe, with no fault taken.  Since a receive blits the queued bytes
   straight into the receiver's frame (no receive buffer, no part copy
   of a loan), copy went 1076 → 559 on both kernels and UVM's loan
   1126 → 94 (92 under release); what is left of a copy is the send's
   513-word mbuf.  The counts include words allocated straight into the
   major heap, which a page-sized buffer is; that made the vnode-read
   rows read about 7 words more per fault (UVM 190 → 197 under dev)
   than the table above.

   Every case prints its measurement to its test log; [--verbose]
   shows them. *)

module Vt = Vmiface.Vmtypes
module Machine = Vmiface.Machine

(* Words allocated while [f ()] runs: the minor heap's, and the major
   heap's own (a block over [Max_young_wosize] words, such as a 4 KB
   buffer, is allocated there directly).  The runtime adds its major
   count up at collections, so a minor collection on each side brings
   it up to date; words promoted by it are not new allocation.  Reading
   the minor counter allocates nothing itself. *)
let major_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let words f =
  let j0 = major_words () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let j1 = major_words () in
  w1 -. w0 +. (j1 -. j0)

let report name w = Printf.printf "%-40s %8.2f words\n%!" name w

let check_zero name w =
  report name w;
  Alcotest.(check (float 0.0)) (name ^ ": words per op") 0.0 w

let check_bound name ~bound w =
  report name w;
  if w > bound then
    Alcotest.failf "%s: %.2f words per op, bound %.1f" name w bound

let test_clock () =
  let c = Sim.Simclock.create () in
  let n = 1000 in
  let w =
    words (fun () ->
        for _ = 1 to n do
          Sim.Simclock.advance c 0.25
        done)
  in
  check_zero "Simclock.advance" (w /. float_of_int n);
  Alcotest.(check (float 0.0)) "time advanced" 250.0 (Sim.Simclock.now c)

(* Words a computed float costs to cross into another module: none
   where cross-module inlining is on, one boxed float under the dev
   profile's [-opaque]. *)
let boxed_float =
  let c = Sim.Simclock.create () in
  let x = Sys.opaque_identity 0.5 in
  words (fun () -> Sim.Simclock.advance c (x +. 0.25))

(* The swap device's own transfers of an all-zero page: the store keeps
   a tag in the slot's array cell, so neither direction allocates beyond
   the disk's clock charge, which is boxed only under [-opaque]. *)
let swapdev_zero () =
  let clock = Sim.Simclock.create () in
  let stats = Sim.Stats.create () in
  let costs = Sim.Cost_model.default in
  let page_size = 4096 in
  let dev = Swap.Swapdev.create ~nslots:8 ~page_size ~clock ~costs ~stats () in
  let pm = Physmem.create ~page_size ~npages:16 ~clock ~costs ~stats () in
  let page = Physmem.alloc pm ~owner:Physmem.Page.No_owner ~offset:0 () in
  Bytes.fill page.Physmem.Page.data 0 page_size '\000';
  let pages = [| page |] in
  let slot = Option.get (Swap.Swapdev.alloc_slots dev ~n:1) in
  let n = 1000 in
  let failed = ref 0 in
  let write () =
    for _ = 1 to n do
      match Swap.Swapdev.write_cluster dev ~slot ~pages ~n:1 with
      | Ok () -> ()
      | Error _ -> incr failed
    done
  and read () =
    for _ = 1 to n do
      match Swap.Swapdev.read_slot dev ~slot ~dst:page with
      | Ok () -> ()
      | Error _ -> incr failed
    done
  in
  let ww = words write in
  let wr = words read in
  Alcotest.(check int) "no transfer failed" 0 !failed;
  Alcotest.(check int) "every write a zero tag" n
    stats.Sim.Stats.swap_zero_pageouts;
  check_bound "Swapdev.write_cluster, zero page" ~bound:boxed_float
    (ww /. float_of_int n);
  check_bound "Swapdev.read_slot, zero page" ~bound:boxed_float
    (wr /. float_of_int n)

module Ledger (V : Vmiface.Vm_sig.VM_SYS) = struct
  let npages = 64

  let fresh () =
    let config =
      { Machine.default_config with ram_pages = 1024; swap_pages = 2048 }
    in
    let sys = V.boot ~config () in
    (sys, V.new_vmspace sys)

  let faults sys = (V.machine sys).Machine.stats.Sim.Stats.faults

  let touch_all sys vm ~vpn access () =
    for i = 0 to npages - 1 do
      V.touch sys vm ~vpn:(vpn + i) access
    done

  (* Words per fault taken while [f] runs, and the fault count. *)
  let per_fault sys f =
    let f0 = faults sys in
    let w = words f in
    let n = faults sys - f0 in
    if n = 0 then Alcotest.fail "no fault taken";
    (w /. float_of_int n, n)

  let zero_region sys vm =
    V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero

  let resident_touch () =
    let sys, vm = fresh () in
    let vpn = zero_region sys vm in
    touch_all sys vm ~vpn Vt.Write ();
    let f0 = faults sys in
    let w =
      words (fun () ->
          touch_all sys vm ~vpn Vt.Write ();
          touch_all sys vm ~vpn Vt.Read ())
    in
    Alcotest.(check int) "resident touches take no fault" f0 (faults sys);
    check_zero (V.name ^ " resident touch") (w /. float_of_int (2 * npages))

  let zero_fill ~bound () =
    let sys, vm = fresh () in
    let vpn = zero_region sys vm in
    let w, n = per_fault sys (touch_all sys vm ~vpn Vt.Write) in
    Alcotest.(check int) "one fault per page" npages n;
    check_bound (V.name ^ " zero-fill write fault") ~bound w

  let vnode_read ~bound () =
    let sys, vm = fresh () in
    let m = V.machine sys in
    let vn =
      Vfs.create_file m.Machine.vfs ~name:"ledger"
        ~size:(npages * Machine.page_size m)
    in
    let vpn =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private
        (Vt.File (vn, 0))
    in
    let w, _ = per_fault sys (touch_all sys vm ~vpn Vt.Read) in
    check_bound (V.name ^ " vnode read fault") ~bound w

  let cow_write ~bound () =
    let sys, vm = fresh () in
    let vpn = zero_region sys vm in
    touch_all sys vm ~vpn Vt.Write ();
    let child = V.fork sys vm in
    let w, n = per_fault sys (touch_all sys child ~vpn Vt.Write) in
    Alcotest.(check int) "one fault per page" npages n;
    check_bound (V.name ^ " COW write fault") ~bound w

  (* Every page of the region is on swap when it is read back: its
     frames are deactivated, a second process's pressure makes the
     daemon page them out, and that process's exit frees the memory the
     pageins land in, so the daemon stays idle while they are measured. *)
  let swap_pagein ~bound () =
    let sys, vm = fresh () in
    let vpn = zero_region sys vm in
    touch_all sys vm ~vpn Vt.Write ();
    ignore (V.deactivate_resident sys vm : int);
    let hog = V.new_vmspace sys in
    let ram = (V.machine sys).Machine.config.Machine.ram_pages in
    let big =
      V.mmap sys hog ~npages:ram ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    V.access_range sys hog ~vpn:big ~npages:ram Vt.Write;
    V.destroy_vmspace sys hog;
    let stats = (V.machine sys).Machine.stats in
    let pageins = stats.Sim.Stats.pageins in
    let w, n = per_fault sys (touch_all sys vm ~vpn Vt.Read) in
    Alcotest.(check int) "one fault per page" npages n;
    Alcotest.(check int) "one swap pagein per fault" n
      (stats.Sim.Stats.pageins - pageins);
    check_bound (V.name ^ " swap pagein fault") ~bound w

  (* Daemon passes over a region of dirty zero-fill pages.  The region
     is deactivated; before each pass a second process takes memory to
     just above the wakeup threshold, and the pass pages out what it
     needs to reach its free target.  The first pass registers what a
     machine's first pageout registers (the daemon's lock, the object's)
     and is not measured.  The words are per page the second pass
     writes, the pass's own overhead included.  Every page is all
     zeros, so the swap store keeps a tag and no copy.  UVM writes
     clusters of [pageout_cluster] pages with reassigned slots, BSD one
     page per fixed slot. *)
  let pageout ~bound ~per_write () =
    let sys, vm = fresh () in
    let m = V.machine sys in
    let physmem = m.Machine.physmem in
    let npages = 4 * npages in
    let vpn =
      V.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    V.access_range sys vm ~vpn ~npages Vt.Write;
    ignore (V.deactivate_resident sys vm : int);
    let hog = V.new_vmspace sys in
    let ram = m.Machine.config.Machine.ram_pages in
    let next =
      ref
        (V.mmap sys hog ~npages:ram ~prot:Pmap.Prot.rw ~share:Vt.Private
           Vt.Zero)
    in
    let squeeze () =
      while Physmem.free_count physmem > Physmem.freemin physmem + 2 do
        V.touch sys hog ~vpn:!next Vt.Write;
        incr next
      done
    in
    squeeze ();
    Physmem.run_pagedaemon physmem;
    squeeze ();
    let stats = m.Machine.stats in
    let disk = List.hd (Swap.Swaptier.disks m.Machine.swap) in
    let pageouts = stats.Sim.Stats.pageouts in
    let zeros = stats.Sim.Stats.swap_zero_pageouts in
    let writes = Sim.Disk.write_ops disk in
    let w = words (fun () -> Physmem.run_pagedaemon physmem) in
    let n = stats.Sim.Stats.pageouts - pageouts in
    if n < 2 * per_write then Alcotest.failf "the pass wrote %d pages" n;
    Alcotest.(check int) "every page a zero tag" n
      (stats.Sim.Stats.swap_zero_pageouts - zeros);
    Alcotest.(check int) "pages per write"
      ((n + per_write - 1) / per_write)
      (Sim.Disk.write_ops disk - writes);
    check_bound (V.name ^ " pageout, per page") ~bound (w /. float_of_int n)

  module I = Ipc.Make (V)

  (* Pipe round trips, one page each: a send from a resident page, then
     a receive into a resident page of another process, so no fault is
     taken.  A copy send keeps a page-sized mbuf, which the count
     includes (it is allocated straight into the major heap); the
     receive puts the bytes straight into the receiver's frame.  The
     first round, which registers the channel's lock, is not
     measured. *)
  let pipe ~policy ~bound () =
    let sys, tx = fresh () in
    let rx = V.new_vmspace sys in
    let m = V.machine sys in
    let ps = Machine.page_size m in
    let src = zero_region sys tx and dst = zero_region sys rx in
    touch_all sys tx ~vpn:src Vt.Write ();
    touch_all sys rx ~vpn:dst Vt.Write ();
    let ch = I.pipe sys ~cap_bytes:ps () in
    let round i =
      let sent = I.send sys tx ch ~policy ~addr:((src + i) * ps) ~len:ps in
      match I.recv sys rx ch ~addr:((dst + i) * ps) ~len:ps with
      | I.Data n when n = ps && sent = ps -> ()
      | I.Data _ | I.Mapped _ -> Alcotest.fail "short pipe transfer"
    in
    round 0;
    let stats = m.Machine.stats in
    let f0 = faults sys and loaned = stats.Sim.Stats.ipc_bytes_loaned in
    let w =
      words (fun () ->
          for i = 1 to npages - 1 do
            round i
          done)
    in
    let n = npages - 1 in
    Alcotest.(check int) "no fault taken" f0 (faults sys);
    Alcotest.(check int) "bytes loaned"
      (if policy = Ipc.Loan then n * ps else 0)
      (stats.Sim.Stats.ipc_bytes_loaned - loaned);
    Alcotest.(check string) "last page received"
      (Bytes.to_string (V.read_bytes sys tx ~addr:((src + n) * ps) ~len:ps))
      (Bytes.to_string (V.read_bytes sys rx ~addr:((dst + n) * ps) ~len:ps));
    check_bound
      (Printf.sprintf "%s pipe %s send+recv, per page" V.name
         (Ipc.policy_name policy))
      ~bound
      (w /. float_of_int n)

  let cases ~zero_fill:zb ~vnode_read:vb ~cow_write:cb ~swap_pagein:sb
      ~pageout:(pb, per_write) ~pipe:pipes =
    [
      Alcotest.test_case "resident touch allocates nothing" `Quick
        resident_touch;
      Alcotest.test_case "zero-fill write fault" `Quick (zero_fill ~bound:zb);
      Alcotest.test_case "vnode read fault" `Quick (vnode_read ~bound:vb);
      Alcotest.test_case "COW write fault" `Quick (cow_write ~bound:cb);
      Alcotest.test_case "swap pagein fault" `Quick (swap_pagein ~bound:sb);
      Alcotest.test_case "pageout" `Quick (pageout ~bound:pb ~per_write);
    ]
    @ List.map
        (fun (policy, bound) ->
          Alcotest.test_case
            (Printf.sprintf "pipe %s send+recv" (Ipc.policy_name policy))
            `Quick (pipe ~policy ~bound))
        pipes
end

module U = Ledger (Uvm.Sys)
module B = Ledger (Bsdvm.Sys)

let () =
  Alcotest.run "alloc"
    [
      ("clock", [ Alcotest.test_case "advance allocates nothing" `Quick test_clock ]);
      ( "swapdev",
        [
          Alcotest.test_case "zero-page transfers allocate nothing" `Quick
            swapdev_zero;
        ] );
      ( "uvm",
        U.cases ~zero_fill:57.0 ~vnode_read:238.0 ~cow_write:99.0
          ~swap_pagein:58.0 ~pageout:(21.0, 4)
          ~pipe:[ (Ipc.Copy, 700.0); (Ipc.Loan, 118.0) ] );
      ( "bsd",
        B.cases ~zero_fill:59.0 ~vnode_read:98.0 ~cow_write:82.0
          ~swap_pagein:84.0 ~pageout:(30.0, 1)
          ~pipe:[ (Ipc.Copy, 700.0) ] );
    ]
