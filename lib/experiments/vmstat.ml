(** vmstat: the machine's paging state as a time-series table.

    A deliberately simple workload — an anonymous working set roughly
    twice RAM, swept sequentially several times — run on both kernels
    with the periodic sampler on, then rendered the way vmstat(8)
    renders /proc: gauge columns as levels, counter columns as
    per-second rates between the displayed rows.  The point is the
    *shape* over time (free pool sawtooth as the pagedaemon fires, swap
    filling monotonically, pagein rate once the sweep wraps), which no
    end-of-run counter table shows. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine

type cfg = {
  ram_pages : int;
  swap_pages : int;
  working_pages : int;  (** anonymous working set; > RAM forces paging *)
  sweeps : int;  (** sequential passes over the working set *)
  ncpus : int;  (** per-CPU page caches; sweep chunks rotate over them *)
}

let full_cfg =
  {
    ram_pages = 256;
    swap_pages = 2048;
    working_pages = 512;
    sweeps = 4;
    ncpus = 1;
  }

let quick_cfg =
  {
    ram_pages = 192;
    swap_pages = 1024;
    working_pages = 320;
    sweeps = 2;
    ncpus = 1;
  }

module Run (V : Vmiface.Vm_sig.VM_SYS) = struct
  let run cfg =
    let config =
      {
        Machine.default_config with
        Machine.ram_pages = cfg.ram_pages;
        swap_pages = cfg.swap_pages;
        ncpus = cfg.ncpus;
        (* vmstat IS the sampler's output, so its machines always boot
           traced: no flag is needed to make the table non-empty. *)
        trace_buf = Some 4096;
      }
    in
    let sys = V.boot ~config () in
    let vm = V.new_vmspace sys in
    let vpn =
      V.mmap sys vm ~npages:cfg.working_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    (* Each sweep walks the working set in [ncpus] chunks, rotating the
       allocating CPU so every per-CPU cache sees traffic and the
       cpuN:* sampler columns (and the cache_starved watchdog behind
       them) have something to show. *)
    let physmem = (V.machine sys).Machine.physmem in
    let chunk = (cfg.working_pages + cfg.ncpus - 1) / cfg.ncpus in
    for _ = 1 to cfg.sweeps do
      for c = 0 to cfg.ncpus - 1 do
        let base = c * chunk in
        let n = min chunk (cfg.working_pages - base) in
        if n > 0 then begin
          Physmem.set_current_cpu physmem c;
          V.access_range sys vm ~vpn:(vpn + base) ~npages:n Vmtypes.Write
        end
      done
    done;
    Physmem.set_current_cpu physmem 0;
    (* One last capture so the table's final row is the end state. *)
    let m = V.machine sys in
    Sim.Timeseries.sample_now m.Machine.series ~ts:(Machine.now m);
    V.destroy_vmspace sys vm;
    m.Machine.trace_source
end

module Uvm_run = Run (Uvm.Sys)
module Bsd_run = Run (Bsdvm.Sys)

type result = Sim.Trace_export.source list

let run ?(quick = false) ~cpus () : result =
  let cfg = { (if quick then quick_cfg else full_cfg) with ncpus = cpus } in
  (* UVM boots first, as the table prints it first. *)
  let u = Uvm_run.run cfg in
  [ u; Bsd_run.run cfg ]

(* -- rendering --------------------------------------------------------- *)

let max_rows = 24

(* Gauges print as levels; these counters print as per-second rates
   between consecutive displayed rows. *)
let gauge_cols =
  [
    ("free_pages", "free");
    ("active_pages", "act");
    ("inactive_pages", "inact");
    ("swap_slots_used", "swpd");
    ("swapcache_pages", "scache");
  ]

let rate_cols =
  [
    ("faults", "flt/s");
    ("pageins", "pi/s");
    ("pageouts", "po/s");
    ("swap_migrations", "mig/s");
    ("oom_kills", "oom/s");
    ("proc_swapouts", "so/s");
    ("proc_swapins", "si/s");
    ("lock_acquires", "lk/s");
  ]

let print_source (src : Sim.Trace_export.source) =
  let series = src.Sim.Trace_export.series in
  let samples = Array.of_list (Sim.Timeseries.samples series) in
  let n = Array.length samples in
  Printf.printf "\n== %s: %d samples (%d captured)\n" src.label n
    (Sim.Timeseries.recorded series);
  if n >= 2 then begin
    let idx name =
      match Sim.Timeseries.col_index series name with
      | Some i -> i
      | None -> invalid_arg ("vmstat: missing column " ^ name)
    in
    let gauges = List.map (fun (c, h) -> (idx c, h)) gauge_cols in
    let rates = List.map (fun (c, h) -> (idx c, h)) rate_cols in
    (* Lock observatory columns: the window-max hold gauge, plus the
       class whose cumulative held time grew most since the previous
       displayed row — vmstat's live "top contended class". *)
    let lk_max = idx "lock_maxhold_us" in
    let lk_held =
      List.map (fun c -> (c, idx ("lockheld:" ^ c))) Sim.Lockstat.known_classes
    in
    (* Per-CPU cache columns exist only on a machine booted with more
       than one CPU: runnable tasks (a level), steal rate, and the
       cache hit ratio as a percentage. *)
    let cpu_cols =
      let rec go k acc =
        match Sim.Timeseries.col_index series (Printf.sprintf "cpu%d:runnable" k)
        with
        | Some run ->
            let want name =
              match
                Sim.Timeseries.col_index series (Printf.sprintf "cpu%d:%s" k name)
              with
              | Some i -> i
              | None -> invalid_arg ("vmstat: missing column cpu" ^ name)
            in
            go (k + 1)
              ((k, run, want "steals", want "hit_rate") :: acc)
        | None -> List.rev acc
      in
      go 0 []
    in
    Printf.printf "%10s" "time_ms";
    List.iter (fun (_, h) -> Printf.printf " %8s" h) gauges;
    List.iter (fun (_, h) -> Printf.printf " %8s" h) rates;
    Printf.printf " %8s %-9s" "lkmax" "lkhot";
    List.iter
      (fun (k, _, _, _) ->
        Printf.printf " %6s %7s %7s"
          (Printf.sprintf "c%d:run" k)
          (Printf.sprintf "c%d:st/s" k)
          (Printf.sprintf "c%d:hit" k))
      cpu_cols;
    print_newline ();
    (* Decimate to at most [max_rows] evenly spaced rows, always ending
       on the newest sample; rates span the gap between displayed rows. *)
    let step = max 1 ((n + max_rows - 1) / max_rows) in
    let prev = ref samples.(0) in
    let row i =
      let s = samples.(i) in
      Printf.printf "%10.1f" (s.Sim.Timeseries.s_ts /. 1000.0);
      List.iter
        (fun (c, _) ->
          Printf.printf " %8.0f" s.Sim.Timeseries.s_values.(c))
        gauges;
      List.iter
        (fun (c, _) ->
          Printf.printf " %8.0f" (Sim.Timeseries.rate ~col:c !prev s))
        rates;
      let hot =
        List.fold_left
          (fun acc (cls, c) ->
            let d =
              s.Sim.Timeseries.s_values.(c)
              -. (!prev).Sim.Timeseries.s_values.(c)
            in
            match acc with
            | Some (_, best) when best >= d -> acc
            | _ when d > 0.0 -> Some (cls, d)
            | _ -> acc)
          None lk_held
      in
      Printf.printf " %8.0f %-9s"
        s.Sim.Timeseries.s_values.(lk_max)
        (match hot with Some (cls, _) -> cls | None -> "-");
      List.iter
        (fun (_, run, steals, hit) ->
          Printf.printf " %6.0f %7.0f %6.0f%%"
            s.Sim.Timeseries.s_values.(run)
            (Sim.Timeseries.rate ~col:steals !prev s)
            (100.0 *. s.Sim.Timeseries.s_values.(hit)))
        cpu_cols;
      print_newline ();
      prev := s
    in
    row 0;
    let i = ref step in
    while !i < n - 1 do
      row !i;
      i := !i + step
    done;
    row (n - 1)
  end;
  match Sim.Timeseries.warnings series with
  | [] -> ()
  | warns ->
      List.iter
        (fun (w : Sim.Timeseries.warning) ->
          Printf.printf "warning @%.1fms %s:%s\n"
            (w.Sim.Timeseries.w_ts /. 1000.0)
            w.Sim.Timeseries.w_rule
            (String.concat ""
               (List.map
                  (fun (k, v) -> Printf.sprintf " %s=%s" k v)
                  w.Sim.Timeseries.w_detail)))
        warns

let print (r : result) =
  Report.title "vmstat: periodic paging state over simulated time";
  List.iter print_source r
