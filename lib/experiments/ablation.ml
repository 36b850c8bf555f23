(** Ablations of UVM's two tunable mechanisms: clustered anonymous
    pageout (§6) and the fault-ahead window (§5.4).

    [Uvm.Sys.boot] fixes the tunables, so every run here boots a machine
    under a hand-tuned {!Uvm.State} and drives {!Uvm.Fault.fault} through
    one raw user map: each simulated charge is the fault routine's own. *)

open Vmiface.Vmtypes
module Machine = Vmiface.Machine

(* A UVM kernel with the given tunables, and one empty user map. *)
let boot ?pageout_cluster ?fault_behind ?fault_ahead config =
  let mach = Machine.boot ~config () in
  let usys =
    Uvm.State.create ?pageout_cluster ?fault_behind ?fault_ahead mach
  in
  Uvm.Pdaemon.install usys;
  Uvm.Vnode_pager.install_recycle_hook usys;
  let pmap = Pmap.create (Uvm.State.pmap_ctx usys) in
  let map =
    Uvm.Map.create usys ~pmap ~lo:Uvm.va_lo ~hi:Uvm.va_hi ~kernel:false
  in
  (mach, usys, pmap, map)

(* Map [npages] copy-on-write at the bottom of [map]: anonymous memory
   when [obj] is [None]. *)
let map_cow map ~npages ~obj ~prot =
  ignore
    (Uvm.Map.insert map ~spage:Uvm.va_lo ~npages ~obj ~objoff:0 ~prot
       ~maxprot:Pmap.Prot.rwx ~inh:Inh_copy ~advice:Adv_normal ~cow:true
       ~needs_copy:true ~merge:false)

let fault map ~vpn access =
  Result.get_ok (Uvm.Fault.fault map ~vpn ~access ~wire:false)

(* -- the anonymous fill under both cluster sweeps ----------------------- *)

type fill = {
  cluster : int;  (** pages the pagedaemon writes per I/O *)
  time_us : float;
  write_ios : int;
  injected : int;  (** write errors the fault plan injected *)
  retries : int;  (** pageouts retried after a transient error *)
}

(* Write-fault [npages] of fresh anonymous memory in address order on a
   machine of [config] whose pagedaemon clusters [cluster] pages. *)
let fill config ~npages cluster =
  let mach, _, pmap, map = boot ~pageout_cluster:cluster config in
  map_cow map ~npages ~obj:None ~prot:Pmap.Prot.rw;
  let t0 = Machine.now mach in
  for vpn = Uvm.va_lo to Uvm.va_lo + npages - 1 do
    fault map ~vpn Write;
    Pmap.mark_access pmap ~vpn ~write:true
  done;
  let st = mach.Machine.stats in
  {
    cluster;
    time_us = Machine.now mach -. t0;
    write_ios = st.Sim.Stats.disk_write_ops;
    injected = st.Sim.Stats.io_errors_injected;
    retries = st.Sim.Stats.pageout_retries;
  }

(* -- pageout cluster size ------------------------------------------------ *)

module Pageout_cluster = struct
  type result = fill list

  let run () : result =
    List.map
      (fill (Machine.config_mb ~ram_mb:32 ()) ~npages:(48 * 256))
      [ 1; 2; 4; 8; 16; 32 ]

  let print (r : result) =
    Report.title
      "Ablation: pageout cluster size (48MB allocation, 32MB RAM; \
       cluster=1 is BSD-style)";
    Printf.printf "%-10s %14s %12s\n" "cluster" "time" "write I/Os";
    List.iter
      (fun f ->
        Printf.printf "%-10d %12.3f s %12d\n" f.cluster (f.time_us /. 1e6)
          f.write_ios)
      r

  let json : result -> Sim.Json.t =
    Report.rows (fun f ->
        [ ("cluster", Int f.cluster); ("time_us", Sim.Json.float f.time_us);
          ("write_ios", Int f.write_ios) ])
end

(* -- write-error rate x pageout cluster size ----------------------------- *)

(* At a fixed per-operation write-error rate, clustering also reduces
   exposure: fewer, larger writes meet fewer errors and so need fewer
   retries for the same workload. *)
module Fault_rate = struct
  type result = (float * fill) list  (** write-error rate, run *)

  let config rate =
    {
      (Machine.config_mb ~ram_mb:16 ~swap_mb:64 ()) with
      fault_plan =
        Some
          (fun () ->
            Sim.Fault_plan.create ~write_error_rate:rate
              ~rate_severity:Sim.Fault_plan.Transient ());
    }

  let run () : result =
    List.concat_map
      (fun rate ->
        List.map
          (fun cluster -> (rate, fill (config rate) ~npages:(24 * 256) cluster))
          [ 1; 8; 16 ])
      [ 0.0; 0.01; 0.05 ]

  let print (r : result) =
    Report.title
      "Ablation: write-error rate x pageout clustering (24MB allocation, \
       16MB RAM)";
    Printf.printf "%-10s %-10s %12s %10s %10s %10s\n" "werr" "cluster" "time"
      "writes" "injected" "retries";
    List.iter
      (fun (rate, f) ->
        Printf.printf "%-10.3f %-10d %10.3f s %10d %10d %10d\n" rate f.cluster
          (f.time_us /. 1e6) f.write_ios f.injected f.retries)
      r

  let json : result -> Sim.Json.t =
    Report.rows (fun (rate, f) ->
        [ ("write_error_rate", Sim.Json.float rate); ("cluster", Int f.cluster);
          ("time_us", Sim.Json.float f.time_us); ("write_ios", Int f.write_ios);
          ("injected", Int f.injected); ("retries", Int f.retries) ])
end

(* -- the fault-ahead window ---------------------------------------------- *)

(* Table 2's mechanism, swept from disabled to double the paper's default
   over the cc trace's text accesses. *)
module Fault_ahead = struct
  type result = (int * int * int) list  (** behind, ahead, faults *)

  let text_pages = 640

  let faults (behind, ahead) =
    let mach, usys, pmap, map =
      boot ~fault_behind:behind ~fault_ahead:ahead Machine.default_config
    in
    let vn =
      Vfs.create_file (Uvm.State.vfs usys) ~name:"/abl/text"
        ~size:(text_pages * 4096)
    in
    map_cow map ~npages:text_pages
      ~obj:(Some (Uvm.Vnode_pager.attach usys vn))
      ~prot:Pmap.Prot.rx;
    let stats = mach.Machine.stats in
    let f0 = stats.Sim.Stats.faults in
    List.iter
      (fun (seg, page, _) ->
        let vpn = Uvm.va_lo + page in
        if
          seg = Oslayer.Trace.Seg_text && page < text_pages
          && Option.is_none (Pmap.lookup pmap ~vpn)
        then fault map ~vpn Read)
      (Oslayer.Trace.command_trace Oslayer.Programs.cc);
    (behind, ahead, stats.Sim.Stats.faults - f0)

  let run () : result = List.map faults [ (0, 0); (1, 2); (3, 4); (6, 8) ]

  let print (r : result) =
    Report.title
      "Ablation: fault-ahead window (behind/ahead) on the cc trace (paper \
       default 3/4)";
    Printf.printf "%-12s %10s\n" "window" "faults";
    List.iter
      (fun (behind, ahead, faults) ->
        Printf.printf "%d/%-10d %10d\n" behind ahead faults)
      r

  let json : result -> Sim.Json.t =
    Report.rows (fun (behind, ahead, faults) ->
        [ ("behind", Int behind); ("ahead", Int ahead);
          ("faults", Int faults) ])
end
