(* Machine-scoped state (DESIGN.md "Machine-scoped state"): every piece of
   kernel state belongs to the machine that created it.  A dropped machine
   is garbage — nothing process-wide keeps its simulated RAM alive — a
   second machine in the same process starts from the same state as the
   first, object ids included, and machines on different domains do not
   interfere. *)

module Vt = Vmiface.Vmtypes

(* The ids a kernel hands out, as seen from its address spaces: vmspace,
   map-layer object and anon ids, sorted. *)
let uvm_ids (sys : Uvm.Sys.sys) =
  Hashtbl.fold
    (fun _ (vm : Uvm.Sys.vmspace) acc ->
      let acc = ref (vm.Uvm.Sys.vid :: acc) in
      Uvm.Map.iter_entries
        (fun (e : Uvm.Map.entry) ->
          (match e.Uvm.Map.obj with
          | Some o -> acc := o.Uvm.Object.id :: !acc
          | None -> ());
          match e.Uvm.Map.amap with
          | Some am ->
              acc := am.Uvm.Amap.id :: !acc;
              Array.iter
                (function
                  | Some (a : Uvm.Anon.t) -> acc := a.Uvm.Anon.id :: !acc
                  | None -> ())
                am.Uvm.Amap.anons
          | None -> ())
        vm.Uvm.Sys.map;
      !acc)
    sys.Uvm.Sys.vmspaces []
  |> List.sort compare

let bsd_ids (sys : Bsdvm.Sys.sys) =
  Hashtbl.fold
    (fun _ (vm : Bsdvm.Sys.vmspace) acc ->
      let acc = ref (vm.Bsdvm.Sys.vid :: acc) in
      let rec chain (o : Bsdvm.Object.t) =
        acc := o.Bsdvm.Object.id :: !acc;
        Option.iter chain o.Bsdvm.Object.shadow
      in
      Bsdvm.Map.iter_entries
        (fun (e : Bsdvm.Map.entry) -> Option.iter chain e.Bsdvm.Map.obj)
        vm.Bsdvm.Sys.map;
      !acc)
    sys.Bsdvm.Sys.vmspaces []
  |> List.sort compare

module Case (V : Vmiface.Vm_sig.VM_SYS) = struct
  (* mmap, touch and fork: under BSD VM the fork's write faults build
     shadow objects, the anonymous objects the swap-leak audit tracks. *)
  let workload () =
    let config =
      { Vmiface.Machine.default_config with ram_pages = 256; swap_pages = 1024 }
    in
    let sys = V.boot ~config () in
    let parent = V.new_vmspace sys in
    let vpn =
      V.mmap sys parent ~npages:16 ~prot:Pmap.Prot.rw ~share:Vt.Private Vt.Zero
    in
    for i = 0 to 15 do
      V.touch sys parent ~vpn:(vpn + i) Vt.Write
    done;
    let child = V.fork sys parent in
    for i = 0 to 7 do
      V.touch sys child ~vpn:(vpn + i) Vt.Write;
      V.touch sys parent ~vpn:(vpn + 8 + i) Vt.Write
    done;
    V.audit sys;
    sys

  (* Boots, runs and drops a machine, keeping only a weak pointer to its
     physical memory. *)
  let[@inline never] dropped_physmem () =
    let sys = workload () in
    let w = Weak.create 1 in
    Weak.set w 0 (Some (V.machine sys).Vmiface.Machine.physmem);
    w

  let test_dropped_machine_is_freed () =
    let w = dropped_physmem () in
    Gc.full_major ();
    Alcotest.(check bool)
      (V.name ^ ": physmem collected after the machine is dropped")
      false (Weak.check w 0)

  let test_second_machine_identical ids () =
    let first = workload () in
    let second = workload () in
    let rows sys = Sim.Stats.to_rows (V.machine sys).Vmiface.Machine.stats in
    Alcotest.(check (list (pair string (float 0.0))))
      (V.name ^ ": same counters") (rows first) (rows second);
    Alcotest.(check (list int))
      (V.name ^ ": same object ids") (ids first) (ids second)
end

module U = Case (Uvm.Sys)
module B = Case (Bsdvm.Sys)

(* Machines on different domains share nothing: each seed's differential
   run gives the same verdict and op trace on the domain pool as in a
   serial loop, and the pool returns them in seed order. *)
let test_pool_matches_serial () =
  let module T = Oslayer.Torture in
  let run seed =
    let cfg = { T.default_cfg with T.seed; nops = 400; audit_every = 50 } in
    let r = T.run cfg in
    Vmiface.Machine.reset_traced ();
    ( Option.map T.string_of_bug r.T.r_bug,
      List.map (fun (i, op) -> Printf.sprintf "%d %s" i (T.op_to_string op))
        r.T.r_trace )
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let serial = List.map run seeds in
  let pooled = Sim.Domain_pool.map run seeds in
  List.iter2
    (fun (bug_s, trace_s) (bug_p, trace_p) ->
      Alcotest.(check (option string)) "same verdict" bug_s bug_p;
      Alcotest.(check (list string)) "same trace" trace_s trace_p)
    serial pooled

let () =
  Alcotest.run "machine"
    [
      ( "dropped machine",
        [
          Alcotest.test_case "UVM machine is freed" `Quick
            U.test_dropped_machine_is_freed;
          Alcotest.test_case "BSD VM machine is freed" `Quick
            B.test_dropped_machine_is_freed;
        ] );
      ( "second machine",
        [
          Alcotest.test_case "UVM replays identically" `Quick
            (U.test_second_machine_identical uvm_ids);
          Alcotest.test_case "BSD VM replays identically" `Quick
            (B.test_second_machine_identical bsd_ids);
        ] );
      ( "domains",
        [
          Alcotest.test_case "torture seeds on the pool match serial" `Quick
            test_pool_matches_serial;
        ] );
    ]
