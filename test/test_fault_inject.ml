(* Fault injection and I/O-error resilience: fault-plan determinism and
   scripting, the swap bad-slot blacklist, typed pagein failures (SIGBUS
   analogue), transient pageout recovery via retry/backoff, permanent-error
   blacklist-and-reassign, and out-of-swap graceful degradation.  The
   resilience scenarios run against BOTH VM systems through the common
   signature. *)

module Vt = Vmiface.Vmtypes
module Fp = Sim.Fault_plan

(* ------------------------------------------------------------------ *)
(* Fault_plan unit tests                                              *)
(* ------------------------------------------------------------------ *)

let decisions plan ~n =
  List.init n (fun i ->
      let op = if i mod 2 = 0 then Fp.Read else Fp.Write in
      match Fp.check plan ~op ~first:i ~count:1 with
      | None -> "ok"
      | Some e -> Fp.string_of_error e)

let test_plan_determinism () =
  let mk () = Fp.create ~seed:7 ~read_error_rate:0.3 ~write_error_rate:0.1 () in
  let a = decisions (mk ()) ~n:200 and b = decisions (mk ()) ~n:200 in
  Alcotest.(check (list string)) "same seed, same fates" a b;
  Alcotest.(check bool) "some ops fail" true (List.exists (( <> ) "ok") a);
  Alcotest.(check bool) "some ops succeed" true (List.mem "ok" a);
  let c = decisions (Fp.create ~seed:8 ~read_error_rate:0.3 ()) ~n:200 in
  Alcotest.(check bool) "different seed, different fates" true (a <> c)

let test_plan_scripting () =
  let plan = Fp.create () in
  (* Fire on the second write touching slot 5, twice; reads never fail. *)
  Fp.fail_op plan ~slot:5 ~after:1 ~count:2 Fp.Write Fp.Transient;
  let write first count = Fp.check plan ~op:Fp.Write ~first ~count in
  Alcotest.(check bool) "slot mismatch passes" true (write 9 1 = None);
  Alcotest.(check bool) "range ending below the slot passes" true
    (write 2 3 = None);
  Alcotest.(check bool) "range starting above the slot passes" true
    (write 6 3 = None);
  Alcotest.(check bool) "slotless op passes" true (write 5 0 = None);
  Alcotest.(check bool) "first match skipped" true (write 5 1 = None);
  (match write 4 3 with
  | Some { failed_op = Fp.Write; severity = Fp.Transient; bad_slot = Some 5 } ->
      ()
  | _ -> Alcotest.fail "expected transient write error at slot 5");
  Alcotest.(check bool) "fires again" true (write 5 1 <> None);
  Alcotest.(check bool) "then exhausted" true (write 5 1 = None);
  Alcotest.(check bool) "reads unaffected" true
    (Fp.check plan ~op:Fp.Read ~first:5 ~count:1 = None);
  (* Permanent errors do not heal: the rule fires forever. *)
  let perm = Fp.create () in
  Fp.fail_op perm ~slot:3 Fp.Read Fp.Permanent;
  for _ = 1 to 50 do
    match Fp.check perm ~op:Fp.Read ~first:3 ~count:1 with
    | Some { severity = Fp.Permanent; _ } -> ()
    | _ -> Alcotest.fail "permanent error healed"
  done;
  (* A rate error blames the first slot of the range, none when the
     operation is slotless. *)
  let always = Fp.create ~write_error_rate:1.0 () in
  (match Fp.check always ~op:Fp.Write ~first:7 ~count:3 with
  | Some { bad_slot = Some 7; _ } -> ()
  | _ -> Alcotest.fail "rate error must blame the first slot");
  match Fp.check always ~op:Fp.Write ~first:0 ~count:0 with
  | Some { bad_slot = None; _ } -> ()
  | _ -> Alcotest.fail "slotless rate error must blame no slot"

let test_swapmap_blacklist () =
  let m = Swap.Swapmap.create ~nslots:8 in
  Alcotest.(check int) "all usable" 8 (Swap.Swapmap.usable m);
  (* Blacklisting a free slot retires it immediately. *)
  Swap.Swapmap.mark_bad m ~slot:3;
  Swap.Swapmap.mark_bad m ~slot:3;
  Alcotest.(check int) "one bad slot (idempotent)" 1 (Swap.Swapmap.bad_count m);
  Alcotest.(check int) "usable shrank" 7 (Swap.Swapmap.usable m);
  (* Blacklisting a slot still in use keeps it charged until freed. *)
  let base = Option.get (Swap.Swapmap.alloc m ~n:4) in
  Swap.Swapmap.mark_bad m ~slot:base;
  Alcotest.(check int) "still charged" 4 (Swap.Swapmap.in_use m);
  Alcotest.(check int) "owner keeps capacity until free" 7 (Swap.Swapmap.usable m);
  Swap.Swapmap.free m ~slot:base ~n:4;
  Alcotest.(check int) "freed" 0 (Swap.Swapmap.in_use m);
  Alcotest.(check int) "capacity shrinks at free" 6 (Swap.Swapmap.usable m);
  (* Bad slots never come back out of the allocator. *)
  let got = ref [] in
  let rec drain () =
    match Swap.Swapmap.alloc m ~n:1 with
    | Some s ->
        got := s :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "drained the usable pool" 6 (List.length !got);
  Alcotest.(check bool) "bad slots skipped" false
    (List.mem 3 !got || List.mem base !got)

(* ------------------------------------------------------------------ *)
(* End-to-end resilience scenarios, generic over the VM system        *)
(* ------------------------------------------------------------------ *)

module Resilience (V : Vmiface.Vm_sig.VM_SYS) = struct
  let stats sys = (V.machine sys).Vmiface.Machine.stats
  let swapdev sys = (V.machine sys).Vmiface.Machine.swap

  (* Boot with a plan we keep a handle on, so tests can add rules
     mid-workload. *)
  let boot_with_plan ?(ram_pages = 128) ?(swap_pages = 2048) plan =
    let config =
      {
        Vmiface.Machine.default_config with
        ram_pages;
        swap_pages;
        fault_plan = Some (fun () -> plan);
      }
    in
    V.boot ~config ()

  let fill sys vm ~vpn ~npages =
    for i = 0 to npages - 1 do
      V.write_bytes sys vm
        ~addr:((vpn + i) * 4096)
        (Bytes.of_string (Printf.sprintf "#%04d#" i))
    done

  let verify sys vm ~vpn ~npages =
    for i = 0 to npages - 1 do
      let got = V.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:6 in
      Alcotest.(check bytes)
        (Printf.sprintf "page %d content" i)
        (Bytes.of_string (Printf.sprintf "#%04d#" i))
        got
    done

  (* A pagein that keeps failing surfaces as a typed pager error — the
     simulated SIGBUS — not a crash, and not silent data corruption. *)
  let test_pagein_error_is_typed () =
    let plan = Fp.create () in
    let sys = boot_with_plan plan in
    let vm = V.new_vmspace sys in
    let n = 300 in
    let vpn = V.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    Alcotest.(check bool) "paging happened" true
      ((stats sys).Sim.Stats.pageouts > 0);
    (* Now the medium dies for reads: every swap pagein fails. *)
    Fp.fail_op plan Fp.Read Fp.Permanent;
    let saw_pager_error = ref false in
    (try
       for i = 0 to n - 1 do
         ignore (V.read_bytes sys vm ~addr:((vpn + i) * 4096) ~len:6)
       done
     with Vt.Segv { error = Vt.Pager_error; _ } -> saw_pager_error := true);
    Alcotest.(check bool) "Segv carries Pager_error" true !saw_pager_error;
    Alcotest.(check bool) "failed pageins counted" true
      ((stats sys).Sim.Stats.pageins_failed > 0);
    Alcotest.(check bool) "injections counted" true
      ((stats sys).Sim.Stats.io_errors_injected > 0);
    (* Anons keep their swap slots on failed pagein: no leak, and teardown
       releases everything. *)
    V.destroy_vmspace sys vm;
    Alcotest.(check int) "swap released" 0 (V.swap_slots_in_use sys)

  (* Transient write errors during pageout are absorbed by retry with
     backoff; the workload never notices and no data is lost. *)
  let test_transient_pageout_recovers () =
    let plan = Fp.create () in
    (* The first pageout write fails twice, then heals. *)
    Fp.fail_op plan ~count:2 Fp.Write Fp.Transient;
    let sys = boot_with_plan plan in
    let vm = V.new_vmspace sys in
    let n = 300 in
    let vpn = V.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    verify sys vm ~vpn ~npages:n;
    let st = stats sys in
    Alcotest.(check int) "both failures injected" 2 st.Sim.Stats.io_errors_injected;
    Alcotest.(check bool) "retries happened" true (st.Sim.Stats.pageout_retries >= 2);
    Alcotest.(check bool) "pageout recovered" true
      (st.Sim.Stats.pageouts_recovered >= 1);
    Alcotest.(check int) "no slot blacklisted" 0 st.Sim.Stats.bad_slots;
    V.destroy_vmspace sys vm;
    Alcotest.(check int) "swap released" 0 (V.swap_slots_in_use sys)

  (* Permanent write error on a specific swap slot: the slot is
     blacklisted, the dirty data stays in core and is rewritten to a
     reassigned slot, and the workload completes with full data
     integrity (the acceptance scenario). *)
  let test_permanent_slot_blacklisted_and_reassigned () =
    let plan = Fp.create () in
    (* Slot 1 is the first slot the allocator hands out, so the very first
       pageout hits bad media. *)
    Fp.fail_op plan ~slot:1 Fp.Write Fp.Permanent;
    let sys = boot_with_plan plan in
    let vm = V.new_vmspace sys in
    let n = 300 in
    let vpn = V.mmap sys vm ~npages:n ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero in
    fill sys vm ~vpn ~npages:n;
    verify sys vm ~vpn ~npages:n;
    let st = stats sys in
    let dev = swapdev sys in
    Alcotest.(check bool) "error injected" true (st.Sim.Stats.io_errors_injected >= 1);
    Alcotest.(check int) "slot 1 blacklisted" 1 st.Sim.Stats.bad_slots;
    Alcotest.(check bool) "device agrees" true (Swap.Swaptier.is_bad_slot dev ~slot:1);
    Alcotest.(check int) "usable pool shrank by one"
      (Swap.Swaptier.capacity dev - 1)
      (Swap.Swaptier.slots_usable dev);
    Alcotest.(check bool) "pageout recovered via reassignment" true
      (st.Sim.Stats.pageouts_recovered >= 1);
    V.destroy_vmspace sys vm;
    Alcotest.(check int) "swap released" 0 (V.swap_slots_in_use sys);
    Alcotest.(check bool) "bad slot stays retired" true
      (Swap.Swaptier.is_bad_slot dev ~slot:1)

  (* Swap exhaustion with clean pages available: the pagedaemon degrades
     to reclaiming clean (file-backed) pages, counts the event, and the
     workload completes. *)
  let test_out_of_swap_degrades () =
    let plan = Fp.create () in
    let sys = boot_with_plan ~ram_pages:96 ~swap_pages:32 plan in
    let vm = V.new_vmspace sys in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/bulk" ~size:(128 * 4096) in
    let anon =
      V.mmap sys vm ~npages:60 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    fill sys vm ~vpn:anon ~npages:60;
    let file =
      V.mmap sys vm ~npages:128 ~prot:Pmap.Prot.read ~share:Vt.Shared
        (Vt.File (vn, 0))
    in
    (* Stream over the file twice: clean pages pour in while 60 dirty anon
       pages overwhelm the 32-slot swap partition. *)
    for _ = 1 to 2 do
      for i = 0 to 127 do
        ignore (V.read_bytes sys vm ~addr:((file + i) * 4096) ~len:1)
      done
    done;
    Alcotest.(check bool) "swap-full events counted" true
      ((stats sys).Sim.Stats.swap_full_events >= 1);
    (* Anonymous data survived the squeeze. *)
    verify sys vm ~vpn:anon ~npages:60;
    V.destroy_vmspace sys vm;
    Alcotest.(check int) "no swap leaked" 0 (V.swap_slots_in_use sys)

  (* Every swap write fails permanently: write_resilient's reassignment
     chews through the healthy pool slot by slot until nothing is left
     (the No_space rung), the kernel degrades to clean-page reclaim, and
     the anonymous data survives pinned in core. *)
  let test_dying_media_exhausts_pool () =
    let plan = Fp.create () in
    Fp.fail_op plan Fp.Write Fp.Permanent;
    let sys = boot_with_plan ~ram_pages:128 ~swap_pages:32 plan in
    let vm = V.new_vmspace sys in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/bulk" ~size:(128 * 4096) in
    let anon =
      V.mmap sys vm ~npages:24 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    fill sys vm ~vpn:anon ~npages:24;
    let file =
      V.mmap sys vm ~npages:128 ~prot:Pmap.Prot.read ~share:Vt.Shared
        (Vt.File (vn, 0))
    in
    for _ = 1 to 2 do
      for i = 0 to 127 do
        ignore (V.read_bytes sys vm ~addr:((file + i) * 4096) ~len:1)
      done
    done;
    let st = stats sys in
    Alcotest.(check bool) "write errors injected" true
      (st.Sim.Stats.io_errors_injected >= 1);
    Alcotest.(check bool) "blacklist ate the pool" true
      (st.Sim.Stats.bad_slots >= 1);
    Alcotest.(check bool) "No_space degradation counted" true
      (st.Sim.Stats.swap_full_events >= 1);
    verify sys vm ~vpn:anon ~npages:24;
    V.destroy_vmspace sys vm;
    Alcotest.(check int) "no swap charged" 0 (V.swap_slots_in_use sys)

  let cases =
    let tc = Alcotest.test_case in
    ( V.name,
      [
        tc "pagein error is typed" `Quick test_pagein_error_is_typed;
        tc "transient pageout recovers" `Quick test_transient_pageout_recovers;
        tc "permanent slot reassigned" `Quick
          test_permanent_slot_blacklisted_and_reassigned;
        tc "out of swap degrades" `Quick test_out_of_swap_degrades;
        tc "dying media exhausts pool" `Quick test_dying_media_exhausts_pool;
      ] )
end

module Uvm_resilience = Resilience (Uvm.Sys)
module Bsd_resilience = Resilience (Bsdvm.Sys)

let () =
  Alcotest.run "fault_inject"
    [
      ( "plan",
        [
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "scripting" `Quick test_plan_scripting;
          Alcotest.test_case "swapmap blacklist" `Quick test_swapmap_blacklist;
        ] );
      Uvm_resilience.cases;
      Bsd_resilience.cases;
    ]
