(** Chaos soak: the overload lifeboat under composed failures.

    Not a paper artifact: the robustness harness for DESIGN.md §14.  A
    seeded {!Sim.Chaos} scenario schedules overlapping fault phases —
    fork/exit churn, a transient I/O error storm, a memory-pressure
    spike that overcommits RAM+swap, a swap-device death and a
    resource-limit squeeze — over several simulated seconds, on both
    kernels.  Worker processes run their syscalls through the
    {!Oslayer.Procsim} overload manager, so the full ladder is
    exercised: rlimit denials, whole-process swapout/swapin, OOM victim
    selection, signal-style kills, and IPC backpressure against parked
    or reaped receivers.

    Every epoch the full invariant audit runs; every OOM kill is stamped
    with the phases active when it happened.  The run is gated on SLOs:
    zero audit failures, zero lost (tag-verified) pages, bounded p99
    fault latency, and zero unattributed kills. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine
module Chaos = Sim.Chaos

type cfg = {
  ram_pages : int;
  fast_pages : int;
  slow_pages : int;
  len_us : float;  (** simulated span the scenario covers *)
  epoch_us : float;  (** idle time charged per epoch on top of op costs *)
  workers : int;  (** long-lived tag-verified processes *)
  worker_pages : int;  (** private working set per worker *)
  spike_pages : int;  (** pressure-phase working set (overcommits swap) *)
  p99_bound_us : float;  (** SLO: worker fault latency p99 must stay under *)
}

(* Sized so the spike's full working set overcommits RAM + swap with a
   couple of epochs' touching to spare: exhaustion (and so the OOM
   ladder) must happen *inside* the pressure window, while the I/O storm
   is still degrading pageout. *)
let full_cfg =
  {
    ram_pages = 128;
    fast_pages = 64;
    slow_pages = 192;
    len_us = 12_000_000.0;
    epoch_us = 10_000.0;
    workers = 3;
    worker_pages = 32;
    spike_pages = 320;
    p99_bound_us = 100_000.0;
  }

let quick_cfg =
  {
    full_cfg with
    ram_pages = 96;
    fast_pages = 48;
    slow_pages = 144;
    len_us = 4_000_000.0;
    worker_pages = 24;
    spike_pages = 240;
  }

type phase_row = {
  pr_name : string;
  pr_start_us : float;
  pr_len_us : float;
  pr_modes : Chaos.mode list;
  mutable pr_epochs : int;
  mutable pr_oom_kills : int;
  mutable pr_rlimit_denials : int;
  mutable pr_faults : int;
  mutable pr_pageouts : int;
  mutable pr_swapouts : int;
  mutable pr_audit_failures : int;
}

type kill_row = { kr_pid : int; kr_badness : int; kr_phase : string }

type row = {
  so_system : string;
  so_passed : bool;
  so_epochs : int;
  so_time_us : float;
  so_audit_failures : int;
  so_lost_pages : int;
  so_p99_fault_us : float;
  so_p99_bound_us : float;
  so_oom_kills : int;
  so_unattributed_ooms : int;
  so_rlimit_denials : int;
  so_proc_swapouts : int;
  so_proc_swapins : int;
  so_reserve_grabs : int;
  so_send_timeouts : int;
  so_send_peer_dead : int;
  so_kills : kill_row list;
  so_phases : phase_row list;
}

let worker_tag pid i = Printf.sprintf "%08x" ((pid * 8191) + i)

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  module Ps = Oslayer.Procsim.Make (V)
  module Overload = Oslayer.Overload

  type worker = { w_proc : Ps.proc; w_vpn : int; w_pages : int }

  let measure cfg ~seed =
    let config =
      Machine.tiered ~fast_pages:cfg.fast_pages ~slow_pages:cfg.slow_pages
        { Machine.default_config with Machine.ram_pages = cfg.ram_pages; seed }
    in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let st = mach.Machine.stats in
    let swap = mach.Machine.swap in
    let ps = Machine.page_size mach in
    let mgr = Ps.new_mgr sys in
    Ps.install mgr;
    let scenario =
      Chaos.generate ~seed ~len_us:cfg.len_us ~pressure_pages:cfg.spike_pages
    in
    let phase_rows =
      List.map
        (fun (p : Chaos.phase) ->
          {
            pr_name = p.Chaos.ph_name;
            pr_start_us = p.ph_start_us;
            pr_len_us = p.ph_len_us;
            pr_modes = p.ph_modes;
            pr_epochs = 0;
            pr_oom_kills = 0;
            pr_rlimit_denials = 0;
            pr_faults = 0;
            pr_pageouts = 0;
            pr_swapouts = 0;
            pr_audit_failures = 0;
          })
        scenario.Chaos.sc_phases
    in
    let row_of name = List.find (fun r -> r.pr_name = name) phase_rows in
    (* The scenario clock advances one [epoch_us] tick per epoch,
       independent of how much simulated time the epoch's ops consumed.
       Charged op time balloons exactly when the machine is thrashing —
       the moment chaos must keep pushing — so pacing phases by the
       charged clock would starve the overload phases of epochs.  The
       virtual clock guarantees every phase its share of epochs; the
       charged clock still prices every operation. *)
    let n_epochs = int_of_float (cfg.len_us /. cfg.epoch_us) in
    let vnow = ref 0.0 in
    let active_names () = Chaos.phase_names_at scenario ~now_us:!vnow in
    (* Kill attribution: the OOM policy stamps each victim with the
       phases active at the moment of death. *)
    let kills = ref [] in
    Ps.set_on_kill mgr (fun proc ~badness ->
        let names = active_names () in
        let phase =
          match names with [] -> "unattributed" | ns -> String.concat "+" ns
        in
        List.iter
          (fun n -> (row_of n).pr_oom_kills <- (row_of n).pr_oom_kills + 1)
          names;
        kills :=
          { kr_pid = proc.Ps.pid; kr_badness = badness; kr_phase = phase }
          :: !kills);
    (* Long-lived workers: a private tag-verified working set each, plus
       one IPC pair whose receiver's backlog and liveness get squeezed. *)
    let fresh_worker () =
      let proc = Ps.spawn sys Oslayer.Programs.cat in
      Ps.register mgr proc;
      let vpn =
        V.mmap sys proc.Ps.vm ~npages:cfg.worker_pages ~prot:Pmap.Prot.rw
          ~share:Vmtypes.Private Vmtypes.Zero
      in
      for i = 0 to cfg.worker_pages - 1 do
        V.write_bytes sys proc.Ps.vm
          ~addr:((vpn + i) * ps)
          (Bytes.of_string (worker_tag proc.Ps.pid i))
      done;
      { w_proc = proc; w_vpn = vpn; w_pages = cfg.worker_pages }
    in
    let workers = ref (List.init cfg.workers (fun _ -> fresh_worker ())) in
    let spawn_proc () =
      let proc = Ps.spawn sys Oslayer.Programs.cat in
      Ps.register mgr proc;
      proc
    in
    let sender = ref (spawn_proc ()) in
    let receiver = ref (spawn_proc ()) in
    let chan = ref (Ps.pipe_owned mgr ~owner:!receiver ~cap_bytes:ps ()) in
    let send_timeouts = ref 0 and send_peer_dead = ref 0 in
    (* Fault-latency SLO histogram: simulated wall time of worker page
       touches (includes pageins, retries, swapins — the user-visible
       latency the lifeboat must keep bounded). *)
    let fault_hist = Sim.Histogram.create () in
    let audit_failures = ref 0 in
    (* Mutable chaos state driven by phase transitions. *)
    let storm_plan = ref None in
    let spike : (V.vmspace * int * int) option ref = ref None in
    let dead_devices = ref [] in
    let squeeze = ref None in
    let all_disks () = Vfs.disk mach.Machine.vfs :: Swap.Swaptier.disks swap in
    let set_plan plan =
      List.iter (fun d -> Sim.Disk.set_fault_plan d plan) (all_disks ())
    in
    let phase_spans = Hashtbl.create 8 in
    let enter_phase (p : Chaos.phase) =
      Hashtbl.replace phase_spans p.Chaos.ph_name
        (Machine.span_start mach ~subsys:"chaos" p.Chaos.ph_name);
      List.iter
        (fun mode ->
          match mode with
          | Chaos.Io_storm { read_rate; write_rate } ->
              let plan =
                Sim.Fault_plan.create ~seed:(seed lxor 0x10)
                  ~read_error_rate:read_rate ~write_error_rate:write_rate
                  ~rate_severity:Sim.Fault_plan.Transient ()
              in
              storm_plan := Some plan;
              set_plan (Some plan)
          | Chaos.Device_death { dev_name } ->
              if not (List.mem dev_name !dead_devices) then begin
                dead_devices := dev_name :: !dead_devices;
                Swap.Swaptier.kill_device swap ~name:dev_name
              end
          | Chaos.Pressure_spike { spike_pages } ->
              let vm = V.new_vmspace sys in
              let vpn =
                V.mmap sys vm ~npages:spike_pages ~prot:Pmap.Prot.rw
                  ~share:Vmtypes.Private Vmtypes.Zero
              in
              spike := Some (vm, vpn, spike_pages)
          | Chaos.Rlimit_squeeze { squeeze_resident } ->
              squeeze := Some squeeze_resident;
              List.iter
                (fun w ->
                  w.w_proc.Ps.limits <-
                    {
                      Overload.unlimited with
                      Overload.rl_resident = squeeze_resident;
                      rl_wired = max 2 (squeeze_resident / 4);
                    })
                !workers;
              (* Squeeze the receiver's IPC backlog too, so senders see
                 rlimit denials on the channel path. *)
              (!receiver).Ps.limits <-
                { Overload.unlimited with Overload.rl_backlog = ps / 2 }
          | Chaos.Fork_churn _ -> ())
        p.Chaos.ph_modes
    in
    let exit_phase (p : Chaos.phase) =
      (match Hashtbl.find_opt phase_spans p.Chaos.ph_name with
      | Some sp ->
          Machine.span_finish mach sp (fun () ->
              List.concat_map
                (fun m -> ("mode", Chaos.mode_name m) :: Chaos.mode_detail m)
                p.Chaos.ph_modes);
          Hashtbl.remove phase_spans p.Chaos.ph_name
      | None -> ());
      List.iter
        (fun mode ->
          match mode with
          | Chaos.Io_storm _ ->
              storm_plan := None;
              set_plan None
          | Chaos.Pressure_spike _ -> (
              match !spike with
              | Some (vm, vpn, n) ->
                  V.munmap sys vm ~vpn ~npages:n;
                  V.destroy_vmspace sys vm;
                  spike := None
              | None -> ())
          | Chaos.Rlimit_squeeze _ ->
              squeeze := None;
              List.iter
                (fun w -> w.w_proc.Ps.limits <- Overload.unlimited)
                !workers;
              (!receiver).Ps.limits <- Overload.unlimited
          | Chaos.Device_death _ | Chaos.Fork_churn _ -> ())
        p.Chaos.ph_modes
    in
    (* One epoch of foreground work for every live worker, under limits. *)
    let worker_slice epoch w =
      let proc = w.w_proc in
      if not proc.Ps.dead then
        try
          for k = 0 to 7 do
            let i = ((epoch * 8) + k) * 13 mod w.w_pages in
            let t0 = Machine.now mach in
            Ps.touch_r mgr proc ~vpn:(w.w_vpn + i)
              (if k land 1 = 0 then Vmtypes.Read else Vmtypes.Write);
            Sim.Histogram.observe fault_hist (Machine.now mach -. t0)
          done;
          if epoch land 3 = 0 then begin
            let wb = Ps.vslock_r mgr proc ~vpn:w.w_vpn ~npages:1 in
            V.vsunlock sys proc.Ps.vm wb
          end
        with
        | Overload.Rlimit_exceeded _ ->
            List.iter
              (fun n ->
                (row_of n).pr_rlimit_denials <-
                  (row_of n).pr_rlimit_denials + 1)
              (active_names ())
        | Overload.Killed _ -> ()
        | Vmtypes.Segv _ | Physmem.Out_of_pages -> ()
    in
    let churn_slice n =
      for _ = 1 to n do
        match Ps.spawn sys Oslayer.Programs.cat with
        | proc -> (
            Ps.register mgr proc;
            try
              Ps.run_as mgr proc (fun () ->
                  V.access_range sys proc.Ps.vm
                    ~vpn:proc.Ps.heap.Ps.seg_vpn ~npages:2 Vmtypes.Write);
              if not proc.Ps.dead then Ps.exit_proc sys proc
            with
            | Overload.Killed _ -> ()
            | Vmtypes.Segv _ | Physmem.Out_of_pages ->
                if not proc.Ps.dead then Ps.exit_proc sys proc)
        | exception (Vmtypes.Segv _ | Physmem.Out_of_pages) -> ()
      done
    in
    let spike_slice epoch =
      match !spike with
      | None -> ()
      | Some (vm, vpn, n) -> (
          try
            (* March a window through the spike set so it keeps competing
               for frames (and swap) instead of settling. *)
            for k = 0 to 31 do
              let i = ((epoch * 32) + k) mod n in
              V.touch sys vm ~vpn:(vpn + i) Vmtypes.Write
            done
          with Vmtypes.Segv _ | Physmem.Out_of_pages -> ())
    in
    let ipc_slice epoch =
      (let s = !sender in
       if not s.Ps.dead then
         let addr = s.Ps.heap.Ps.seg_vpn * ps in
         try
           match
             Ps.send_r mgr s !chan ~policy:Ipc.Copy ~addr ~len:(ps / 2)
           with
           | Ok _ -> ()
           | Error Ipc.Timed_out -> incr send_timeouts
           | Error Ipc.Peer_dead -> incr send_peer_dead
         with
         | Overload.Rlimit_exceeded _ -> ()
         | Overload.Killed _ | Vmtypes.Segv _ | Physmem.Out_of_pages -> ());
      let r = !receiver in
      if epoch mod 3 = 0 && not r.Ps.dead then
        let addr = r.Ps.heap.Ps.seg_vpn * ps in
        try
          ignore
            (Ps.recv_r mgr r !chan ~addr ~len:(2 * ps) : Ps.I.delivery)
        with Overload.Killed _ | Vmtypes.Segv _ | Physmem.Out_of_pages -> ()
    in
    (* Main epoch loop. *)
    let t_start = Machine.now mach in
    let epoch = ref 0 in
    let prev_active = ref [] in
    while !epoch < n_epochs do
      let e = !epoch in
      vnow := (float_of_int e +. 0.5) /. float_of_int n_epochs *. cfg.len_us;
      let names = active_names () in
      (* Phase transitions. *)
      List.iter
        (fun (p : Chaos.phase) ->
          let active = List.mem p.Chaos.ph_name names in
          let was = List.mem p.Chaos.ph_name !prev_active in
          if active && not was then enter_phase p;
          if was && not active then exit_phase p)
        scenario.Chaos.sc_phases;
      prev_active := names;
      List.iter (fun n -> (row_of n).pr_epochs <- (row_of n).pr_epochs + 1) names;
      (* Per-phase stats deltas for the epoch. *)
      let before = Sim.Stats.snapshot st in
      (* Foreground work. *)
      List.iter (worker_slice e) !workers;
      ipc_slice e;
      spike_slice e;
      List.iter
        (fun (p : Chaos.phase) ->
          if List.mem p.Chaos.ph_name names then
            List.iter
              (function
                | Chaos.Fork_churn { churn_procs } -> churn_slice churn_procs
                | _ -> ())
              p.Chaos.ph_modes)
        scenario.Chaos.sc_phases;
      (* Replace workers lost to the OOM policy once the spike is off, so
         verification always has survivors to check.  Replacements born
         during a squeeze inherit the squeezed limits. *)
      if Option.is_none !spike then
        workers :=
          List.map
            (fun w ->
              if w.w_proc.Ps.dead then (
                try
                  let fresh = fresh_worker () in
                  (match !squeeze with
                  | Some squeeze_resident ->
                      fresh.w_proc.Ps.limits <-
                        {
                          Overload.unlimited with
                          Overload.rl_resident = squeeze_resident;
                          rl_wired = max 2 (squeeze_resident / 4);
                        }
                  | None -> ());
                  fresh
                with Physmem.Out_of_pages | Vmtypes.Segv _ -> w)
              else w)
            !workers;
      (* The sender respawns even mid-pressure — its sends to the dead
         receiver's channel are how [Peer_dead] backpressure shows up.
         The receiver (and a fresh channel) only come back once the
         spike is off. *)
      (try
         if (!sender).Ps.dead then sender := spawn_proc ();
         if (!receiver).Ps.dead && Option.is_none !spike then begin
           receiver := spawn_proc ();
           chan := Ps.pipe_owned mgr ~owner:!receiver ~cap_bytes:ps ()
         end
       with Physmem.Out_of_pages | Vmtypes.Segv _ -> ());
      (* Epoch audit: the invariants must hold mid-chaos, every epoch. *)
      (try V.audit sys
       with Check.Audit_failure _ ->
         incr audit_failures;
         List.iter
           (fun n ->
             (row_of n).pr_audit_failures <- (row_of n).pr_audit_failures + 1)
           names);
      let d = Sim.Stats.diff ~after:st ~before in
      List.iter
        (fun n ->
          let r = row_of n in
          r.pr_faults <- r.pr_faults + d.Sim.Stats.faults;
          r.pr_pageouts <- r.pr_pageouts + d.Sim.Stats.pageouts;
          r.pr_swapouts <- r.pr_swapouts + d.Sim.Stats.proc_swapouts)
        names;
      Machine.charge mach cfg.epoch_us;
      incr epoch
    done;
    (* Cooldown teardown: close any still-open phase, then verify. *)
    List.iter
      (fun (p : Chaos.phase) ->
        if List.mem p.Chaos.ph_name !prev_active then exit_phase p)
      scenario.Chaos.sc_phases;
    let lost = ref 0 in
    List.iter
      (fun w ->
        let proc = w.w_proc in
        if not proc.Ps.dead then begin
          Ps.swapin_whole mgr proc;
          for i = 0 to w.w_pages - 1 do
            match
              V.read_bytes sys proc.Ps.vm ~addr:((w.w_vpn + i) * ps) ~len:8
            with
            | got ->
                if Bytes.to_string got <> worker_tag proc.Ps.pid i then
                  incr lost
            | exception Vmtypes.Segv _ -> incr lost
          done
        end)
      !workers;
    (* Post-mortem audit with dead devices, reaped processes and drained
       queues all in the final state. *)
    (try V.audit sys with Check.Audit_failure _ -> incr audit_failures);
    Ps.uninstall mgr;
    let p99 = Sim.Histogram.p99 fault_hist in
    let unattributed =
      List.length (List.filter (fun k -> k.kr_phase = "unattributed") !kills)
    in
    {
      so_system = V.name;
      so_passed =
        !audit_failures = 0 && !lost = 0
        && p99 <= cfg.p99_bound_us
        && unattributed = 0;
      so_epochs = !epoch;
      so_time_us = Machine.now mach -. t_start;
      so_audit_failures = !audit_failures;
      so_lost_pages = !lost;
      so_p99_fault_us = p99;
      so_p99_bound_us = cfg.p99_bound_us;
      so_oom_kills = st.Sim.Stats.oom_kills;
      so_unattributed_ooms = unattributed;
      so_rlimit_denials = st.Sim.Stats.rlimit_denials;
      so_proc_swapouts = st.Sim.Stats.proc_swapouts;
      so_proc_swapins = st.Sim.Stats.proc_swapins;
      so_reserve_grabs = st.Sim.Stats.reserve_grabs;
      so_send_timeouts = !send_timeouts;
      so_send_peer_dead = !send_peer_dead;
      so_kills = List.rev !kills;
      so_phases = phase_rows;
    }
end

module U = Make (Uvm.Sys)
module B = Make (Bsdvm.Sys)

type result = { seed : int; len_us : float; rows : row list }

let run ?(quick = false) ~seed () : result =
  let cfg = if quick then quick_cfg else full_cfg in
  {
    seed;
    len_us = cfg.len_us;
    rows = [ B.measure cfg ~seed; U.measure cfg ~seed ];
  }

let print (r : result) =
  Report.title
    "Chaos soak: %.1fs simulated, seed %d (device death + I/O storm + \
     pressure + rlimit squeeze + churn)"
    (r.len_us /. 1e6) r.seed;
  Printf.printf "%-8s %-6s %6s %5s %5s %9s %5s %7s %7s %7s %8s %8s %9s\n"
    "system" "passed" "epochs" "audit" "lost" "p99_us" "kills" "denials"
    "swapout" "swapin" "reserve" "timeout" "peer_dead";
  List.iter
    (fun s ->
      Printf.printf
        "%-8s %-6s %6d %5d %5d %9.1f %5d %7d %7d %7d %8d %8d %9d\n"
        s.so_system
        (if s.so_passed then "yes" else "NO")
        s.so_epochs s.so_audit_failures s.so_lost_pages s.so_p99_fault_us
        s.so_oom_kills s.so_rlimit_denials s.so_proc_swapouts s.so_proc_swapins
        s.so_reserve_grabs s.so_send_timeouts s.so_send_peer_dead;
      List.iter
        (fun k ->
          Printf.printf "         kill pid=%d badness=%d phase=%s\n" k.kr_pid
            k.kr_badness k.kr_phase)
        s.so_kills;
      List.iter
        (fun p ->
          if p.pr_epochs > 0 then
            Printf.printf
              "         phase %-12s epochs=%-4d kills=%d denials=%d \
               faults=%d pageouts=%d swapouts=%d audit_fail=%d\n"
              p.pr_name p.pr_epochs p.pr_oom_kills p.pr_rlimit_denials
              p.pr_faults p.pr_pageouts p.pr_swapouts p.pr_audit_failures)
        s.so_phases)
    r.rows

let json (r : result) =
  let f1 = Sim.Json.float ~decimals:1 in
  let kill k =
    Sim.Json.Object
      [ ("pid", Int k.kr_pid); ("badness", Int k.kr_badness);
        ("phase", String k.kr_phase) ]
  in
  let phase p =
    Sim.Json.Object
      [ ("name", String p.pr_name); ("start_us", f1 p.pr_start_us);
        ("len_us", f1 p.pr_len_us);
        ( "modes",
          Sim.Json.list
            (fun m -> Sim.Json.String (Chaos.mode_name m))
            p.pr_modes );
        ("epochs", Int p.pr_epochs); ("oom_kills", Int p.pr_oom_kills);
        ("rlimit_denials", Int p.pr_rlimit_denials); ("faults", Int p.pr_faults);
        ("pageouts", Int p.pr_pageouts); ("proc_swapouts", Int p.pr_swapouts);
        ("audit_failures", Int p.pr_audit_failures) ]
  in
  let system s =
    Sim.Json.Object
      [ ("label", String s.so_system); ("passed", Bool s.so_passed);
        ("epochs", Int s.so_epochs); ("time_us", Sim.Json.float s.so_time_us);
        ( "slo",
          Object
            [ ("audit_failures", Int s.so_audit_failures);
              ("lost_pages", Int s.so_lost_pages);
              ("p99_fault_us", Sim.Json.float s.so_p99_fault_us);
              ("p99_bound_us", f1 s.so_p99_bound_us);
              ("oom_kills", Int s.so_oom_kills);
              ("unattributed_ooms", Int s.so_unattributed_ooms) ] );
        ( "counters",
          Object
            [ ("oom_kills", Int s.so_oom_kills);
              ("rlimit_denials", Int s.so_rlimit_denials);
              ("proc_swapouts", Int s.so_proc_swapouts);
              ("proc_swapins", Int s.so_proc_swapins);
              ("reserve_grabs", Int s.so_reserve_grabs);
              ("send_timeouts", Int s.so_send_timeouts);
              ("send_peer_dead", Int s.so_send_peer_dead) ] );
        ("kills", Sim.Json.list kill s.so_kills);
        ("phases", Sim.Json.list phase s.so_phases) ]
  in
  Sim.Json.Object
    [ ("schema", String "uvm-sim-soak/1"); ("seed", Int r.seed);
      ("len_us", f1 r.len_us); ("systems", Sim.Json.list system r.rows) ]
