(* Allocation ledger: minor-heap words per operation, measured on fresh
   state for both kernels.  The simulator's hot paths are the clock, the
   resident access and the fault routine; these bounds keep them from
   growing allocations back.  The counts are deterministic, so a bound
   only moves when the code on the path changes.

   The bounds hold under the dev profile, which compiles every module
   [-opaque] (no cross-module inlining, so each float passed across a
   module boundary is boxed), and a fortiori under the release profile.
   A fault bound is the dev-profile measurement with 25% headroom.  The
   words per fault measured when the bounds were set (and, in
   parentheses, before both kernels' pagers shared one I/O path and the
   map lock stopped timing its own holds):

   | case                  |   UVM dev | UVM release |   BSD dev | BSD release |
   |-----------------------|-----------|-------------|-----------|-------------|
   | zero-fill write fault |   45 (51) |     31 (33) |   47 (58) |     31 (38) |
   | vnode read fault      | 206 (246) |   170 (206) |  94 (126) |    80 (108) |
   | COW write fault       |   79 (85) |     61 (63) |   65 (81) |     47 (59) |
   | swap pagein fault     |  78 (104) |     64 (86) |  99 (134) |    83 (114) |

   Every case prints its measurement to its test log; [--verbose]
   shows them. *)

module Vt = Vmiface.Vmtypes
module Machine = Vmiface.Machine

(* Minor-heap words allocated while [f ()] runs.  Reading the counter
   allocates nothing itself. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0

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

  let cases ~zero_fill:zb ~vnode_read:vb ~cow_write:cb ~swap_pagein:sb =
    [
      Alcotest.test_case "resident touch allocates nothing" `Quick
        resident_touch;
      Alcotest.test_case "zero-fill write fault" `Quick (zero_fill ~bound:zb);
      Alcotest.test_case "vnode read fault" `Quick (vnode_read ~bound:vb);
      Alcotest.test_case "COW write fault" `Quick (cow_write ~bound:cb);
      Alcotest.test_case "swap pagein fault" `Quick (swap_pagein ~bound:sb);
    ]
end

module U = Ledger (Uvm.Sys)
module B = Ledger (Bsdvm.Sys)

let () =
  Alcotest.run "alloc"
    [
      ("clock", [ Alcotest.test_case "advance allocates nothing" `Quick test_clock ]);
      ( "uvm",
        U.cases ~zero_fill:57.0 ~vnode_read:258.0 ~cow_write:99.0
          ~swap_pagein:98.0 );
      ( "bsd",
        B.cases ~zero_fill:59.0 ~vnode_read:118.0 ~cow_write:82.0
          ~swap_pagein:124.0 );
    ]
