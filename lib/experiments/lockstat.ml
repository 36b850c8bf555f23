(** The lock observatory's showcase: one workload that takes every
    registered lock class on both kernels, then exports the registry.

    A single address space works through an anonymous region larger than
    RAM (pressure -> pagedaemon -> swap -> page queues), re-reads a
    file-backed mapping (object locks), and streams bytes through a pipe
    (channel locks) — with each iteration wrapped in a root span, so the
    folded flamegraph's self times telescope to the measured wall time
    exactly, the same construction serve.ml uses for its p99 breakdown.

    Exports:
    - [uvm-sim-lockstat/2] JSON — per-class hold histograms (total and
      per-mode), per-subsystem attribution, and the observed lock-order
      graph with any cycles (contention is measured by the smp
      experiment, not projected here);
    - a folded-stack profile ("UVM;request;fault;lock:amap 12.5" lines,
      self-time weighted) ready for [flamegraph.pl]. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine

type result = {
  lk_requests : int;  (** iterations per system *)
  lk_wall_us : float;  (** sum of request root-span durations, both systems *)
  lk_folded_us : float;  (** sum of folded self times — equals the wall *)
  lk_folded : (string * float) list;  (** "system;span;...;lock:cls" lines *)
  lk_sources : Sim.Trace_export.source list;  (** one per system, boot order *)
}

type cfg = {
  ram_pages : int;
  swap_pages : int;
  anon_pages : int;  (** working set; > ram forces paging *)
  file_pages : int;
  requests : int;
}

let default_cfg =
  {
    ram_pages = 384;
    swap_pages = 2048;
    anon_pages = 512;
    file_pages = 48;
    requests = 24;
  }

module Run (V : Vmiface.Vm_sig.VM_SYS) = struct
  module I = Ipc.Make (V)

  (* Returns (per-request folded paths prefixed with the system name,
     wall = sum of root durations, this machine's trace source). *)
  let measure cfg =
    let config =
      {
        Machine.default_config with
        Machine.ram_pages = cfg.ram_pages;
        swap_pages = cfg.swap_pages;
        trace_buf = Some 16384;
      }
    in
    let sys = V.boot ~config () in
    let m = V.machine sys in
    Machine.set_label m V.name;
    let ps = Machine.page_size m in
    let spans = m.Machine.spans in
    let vm = V.new_vmspace sys in
    let vn =
      Vfs.create_file m.Machine.vfs ~name:"/data/lockstat"
        ~size:(cfg.file_pages * ps)
    in
    let fvpn =
      V.mmap sys vm ~npages:cfg.file_pages
        ~prot:{ Pmap.Prot.r = true; w = false; x = false }
        ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    let avpn =
      V.mmap sys vm ~npages:cfg.anon_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    let ch = I.pipe sys ~cap_bytes:(8 * ps) () in
    let payload = 2 * ps in
    let folded = Hashtbl.create 256 in
    let wall = ref 0.0 in
    (* The anonymous sweep strides a window per iteration; cycling
       through a region larger than RAM keeps the pagedaemon running and
       later windows faulting back in from swap. *)
    let window = max 1 (cfg.anon_pages / 8) in
    for req = 0 to cfg.requests - 1 do
      Sim.Span.clear spans;
      let root = Machine.span_start m ~subsys:"lockstat" "request" in
      let base = avpn + req * window mod cfg.anon_pages in
      for i = 0 to window - 1 do
        let vpn = avpn + ((base - avpn + i) mod cfg.anon_pages) in
        V.touch sys vm ~vpn Vmtypes.Write
      done;
      for i = 0 to cfg.file_pages - 1 do
        V.touch sys vm ~vpn:(fvpn + i) Vmtypes.Read
      done;
      let sent = I.send sys vm ch ~policy:Ipc.Copy ~addr:(avpn * ps) ~len:payload in
      (match I.recv sys vm ch ~addr:((avpn + 2) * ps) ~len:sent with
      | I.Data _ | I.Mapped _ -> ());
      Machine.span_finish m root (fun () -> []);
      wall := !wall +. root.Sim.Span.sdur;
      let tree = Sim.Span.take_trace spans ~trace:root.Sim.Span.strace in
      List.iter
        (fun (path, self) ->
          let line = V.name ^ ";" ^ path in
          match Hashtbl.find_opt folded line with
          | Some r -> r := !r +. self
          | None -> Hashtbl.replace folded line (ref self))
        (Sim.Span.fold_paths tree)
    done;
    (* The audit doubles as the lockdep gate: a cycle in the observed
       order graph fails the run, not just the export. *)
    V.audit sys;
    let lines =
      Hashtbl.fold (fun line r acc -> (line, !r) :: acc) folded []
    in
    (lines, !wall, m.Machine.trace_source)
end

module Uvm_run = Run (Uvm.Sys)
module Bsd_run = Run (Bsdvm.Sys)

let run ?(cfg = default_cfg) () =
  Machine.reset_traced ();
  let u_lines, u_wall, u_src = Uvm_run.measure cfg in
  let b_lines, b_wall, b_src = Bsd_run.measure cfg in
  Machine.reset_traced ();
  let folded =
    List.sort
      (fun (_, a) (_, b) -> compare (b : float) a)
      (u_lines @ b_lines)
  in
  {
    lk_requests = cfg.requests;
    lk_wall_us = u_wall +. b_wall;
    lk_folded_us = List.fold_left (fun a (_, s) -> a +. s) 0.0 folded;
    lk_folded = folded;
    lk_sources = [ u_src; b_src ];
  }

(* The folded-stack profile: one "path weight" line per stack, the
   format flamegraph.pl and speedscope ingest directly. *)
let folded_string r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (line, self) -> Buffer.add_string buf (Printf.sprintf "%s %.3f\n" line self))
    r.lk_folded;
  Buffer.contents buf

(* uvm-sim-lockstat/2 with the profile's reconciliation totals on top:
   consumers can assert folded_total_us ~ wall_us without re-summing. *)
let json r =
  Sim.Json.Object
    [ ("schema", String "uvm-sim-lockstat/2"); ("requests", Int r.lk_requests);
      ("wall_us", Sim.Json.float r.lk_wall_us);
      ("folded_total_us", Sim.Json.float r.lk_folded_us);
      ("systems", Sim.Trace_export.lockstat_systems r.lk_sources) ]

let print r =
  Report.title "Lock observatory: per-class holds and lock order";
  Printf.printf "%d requests/system, wall %.0f us, folded %.0f us (%+.2f%%)\n"
    r.lk_requests r.lk_wall_us r.lk_folded_us
    (if r.lk_wall_us > 0.0 then
       100.0 *. (r.lk_folded_us -. r.lk_wall_us) /. r.lk_wall_us
     else 0.0);
  List.iter
    (fun (src : Sim.Trace_export.source) ->
      match src.Sim.Trace_export.locks with
      | None -> ()
      | Some reg ->
          Printf.printf "\n%s:\n" src.Sim.Trace_export.label;
          Printf.printf "  %-10s %10s %8s %8s %12s %12s\n" "class" "acq"
            "reads" "writes" "mean_hold" "max_hold";
          List.iter
            (fun (cv : Sim.Lockstat.class_view) ->
              if cv.Sim.Lockstat.cv_acquires > 0 then
                Printf.printf "  %-10s %10d %8d %8d %12.1f %12.1f\n"
                  cv.Sim.Lockstat.cv_cls cv.Sim.Lockstat.cv_acquires
                  cv.Sim.Lockstat.cv_reads cv.Sim.Lockstat.cv_writes
                  (Sim.Histogram.mean cv.Sim.Lockstat.cv_hold)
                  cv.Sim.Lockstat.cv_max_hold_us)
            (Sim.Lockstat.views reg);
          (match Sim.Lockstat.cycles reg with
          | [] -> Printf.printf "  lock order: acyclic\n"
          | cycles ->
              List.iter
                (fun cyc ->
                  Printf.printf "  ORDER CYCLE: %s\n"
                    (String.concat " -> " (cyc @ [ List.hd cyc ])))
                cycles))
    r.lk_sources
