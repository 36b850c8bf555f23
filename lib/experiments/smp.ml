(** Simulated SMP (DESIGN.md §16): a parallel fault storm on N virtual
    CPUs, measured — not projected — lock contention.

    Each kernel boots with [ncpus] per-CPU page caches and runs the same
    storm twice: once on 1 CPU (the serial baseline) and once on N.  The
    storm forks [procs] workers off one parent address space; every
    worker, per scheduler quantum, writes a window of its private
    anonymous region (allocation pressure through the per-CPU caches),
    reads a slice of a shared file mapping (read-mode object locks, the
    lockless fast path's bread and butter) and writes one page of a
    shared anonymous scoreboard.  The scoreboard is where the kernels
    part ways: BSD VM backs it with one shared anonymous object whose
    lock every write-mode fault takes, while UVM resolves the same
    faults in the shared amap — so at 4 CPUs the BSD object class tops
    the measured wait table and UVM's does not.

    Mid-storm, every [audit_every] quanta, both kernels' full invariant
    audits run — including the sharding sums and the lockless-lookup
    diff check of {!Check.check_smp}/{!Check.check_lookup}. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine

type cfg = {
  ram_pages : int;
  swap_pages : int;
  procs : int;  (** storm workers (forked off one parent) *)
  steps : int;  (** scheduler quanta per worker *)
  anon_pages : int;  (** private anonymous region (COW off the parent) *)
  window : int;  (** private pages written per quantum *)
  file_pages : int;  (** shared file mapping, read by everyone *)
  file_stride : int;  (** file pages read per quantum *)
  shared_pages : int;  (** shared anonymous scoreboard *)
  audit_every : int;  (** quanta between mid-storm full audits *)
  seed : int;
}

let profile ~quick ~cpus ~seed =
  let procs = max 4 (2 * cpus) in
  if quick then
    {
      ram_pages = 448;
      swap_pages = 4096;
      procs;
      steps = 50;
      anon_pages = 224;
      window = 4;
      file_pages = 512;
      file_stride = 12;
      shared_pages = 8 * procs;
      audit_every = 200;
      seed;
    }
  else
    {
      ram_pages = 640;
      swap_pages = 8192;
      procs;
      steps = 150;
      anon_pages = 640;
      window = 4;
      file_pages = 768;
      file_stride = 12;
      shared_pages = 8 * procs;
      audit_every = 500;
      seed;
    }

(* Swap grows with the storm: every worker's whole private region and
   the scoreboard may sit on swap at once, plus one RAM's worth of slack
   for the slot holes clustered pageout leaves behind.  Up to 4 CPUs the
   profile's fixed size already covers that. *)
let cfg ?(quick = false) ~cpus ~seed () =
  let c = profile ~quick ~cpus ~seed in
  {
    c with
    swap_pages =
      max c.swap_pages ((c.procs * c.anon_pages) + c.shared_pages + c.ram_pages);
  }

(* -- results ------------------------------------------------------------ *)

type cpu_row = {
  sc_cpu : int;
  sc_now_us : float;  (** the CPU's virtual clock at storm end *)
  sc_quanta : int;
  sc_wait_us : float;
  sc_bounces : int;
  sc_wait_by_class : (string * float) list;
  sc_faults : int;  (** faults attributed to this CPU's quanta *)
  sc_cache_hits : int;
  sc_cache_misses : int;
  sc_refills : int;
  sc_steals : int;
}

type kernel_run = {
  kr_system : string;
  kr_cpus : int;
  kr_wall_us : float;  (** max per-CPU virtual clock *)
  kr_quanta : int;
  kr_total_wait_us : float;
  kr_total_bounces : int;
  kr_wait_by_class : (string * float) list;  (** largest first *)
  kr_fast_hits : int;
  kr_locked_lookups : int;
  kr_faults : int;
  kr_audits : int;  (** clean mid-storm + final audits *)
  kr_audit_failures : string list;
  kr_cpu_rows : cpu_row list;
}

let fast_rate r =
  let total = r.kr_fast_hits + r.kr_locked_lookups in
  if total = 0 then 0.0 else float_of_int r.kr_fast_hits /. float_of_int total

let top_wait r =
  match r.kr_wait_by_class with [] -> ("-", 0.0) | (c, w) :: _ -> (c, w)

type system_result = {
  ss_system : string;
  ss_base : kernel_run;  (** the 1-CPU serialization *)
  ss_par : kernel_run;  (** the N-CPU storm *)
}

let speedup s =
  if s.ss_par.kr_wall_us > 0.0 then
    s.ss_base.kr_wall_us /. s.ss_par.kr_wall_us
  else 0.0

type result = { sm_cpus : int; sm_seed : int; sm_systems : system_result list }

(* -- the storm ---------------------------------------------------------- *)

module Run (V : Vmiface.Vm_sig.VM_SYS) = struct
  let measure cfg ~cpus =
    let config =
      {
        Machine.default_config with
        Machine.ram_pages = cfg.ram_pages;
        swap_pages = cfg.swap_pages;
        ncpus = cpus;
        seed = cfg.seed;
        trace_buf = Some 16384 (* contention needs a recording registry *);
      }
    in
    let sys = V.boot ~config () in
    let m = V.machine sys in
    Machine.set_label m (Printf.sprintf "%s@%dcpu" V.name cpus);
    let ps = Machine.page_size m in
    let pm = m.Machine.physmem in
    let parent = V.new_vmspace sys in
    let vn =
      Vfs.create_file m.Machine.vfs ~name:"/data/smp"
        ~size:(cfg.file_pages * ps)
    in
    let fvpn =
      V.mmap sys parent ~npages:cfg.file_pages
        ~prot:{ Pmap.Prot.r = true; w = false; x = false }
        ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    let svpn =
      V.mmap sys parent ~npages:cfg.shared_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Shared Vmtypes.Zero
    in
    let avpn =
      V.mmap sys parent ~npages:cfg.anon_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    let workers = Array.init cfg.procs (fun _ -> V.fork sys parent) in
    let smp =
      Sim.Smp.create ~seed:cfg.seed ~cpus ~clock:m.Machine.clock
        ~costs:m.Machine.costs ~stats:m.Machine.stats ~locks:m.Machine.locks
        ()
    in
    Sim.Smp.set_on_dispatch smp (fun cpu -> Physmem.set_current_cpu pm cpu);
    Machine.set_runnable_probe m (Some (fun cpu -> Sim.Smp.runnable smp ~cpu));
    let audits = ref 0 in
    let failures = ref [] in
    let audit () =
      match V.audit sys with
      | () -> incr audits
      | exception Check.Audit_failure f ->
          failures := Check.string_of_failure f :: !failures
    in
    (* One quantum of worker [p].  Pure arithmetic striding — a run is a
       function of (cfg, cpus) only.  Three phases:
       - private-window writes: allocation through the per-CPU caches;
       - a shared-file streaming read, every worker in the SAME phase:
         the first toucher of a page takes the locked pagein, its seven
         siblings fast-hit the now-resident frame — the fast path's
         bread and butter, and the stream is bigger than RAM so it
         doubles as the eviction pressure;
       - one write into the worker's slice of the shared scoreboard.
         The slice goes cold for long enough to be evicted between
         revisits, so each revisit is a write-mode pagein — on BSD all
         slices live in ONE shared anonymous object, so these serialize
         on its lock across CPUs, while UVM spreads them over the shared
         amap.  That asymmetry is the measured headline. *)
    let slice = cfg.shared_pages / cfg.procs in
    let step p i =
      let vm = workers.(p) in
      let abase = i * cfg.window mod cfg.anon_pages in
      for k = 0 to cfg.window - 1 do
        V.touch sys vm
          ~vpn:(avpn + ((abase + k) mod cfg.anon_pages))
          Vmtypes.Write
      done;
      let fbase = i * cfg.file_stride mod cfg.file_pages in
      for k = 0 to cfg.file_stride - 1 do
        V.touch sys vm
          ~vpn:(fvpn + ((fbase + k) mod cfg.file_pages))
          Vmtypes.Read
      done;
      V.touch sys vm ~vpn:(svpn + (p * slice) + (i mod slice)) Vmtypes.Write;
      i + 1 < cfg.steps
    in
    for p = 0 to cfg.procs - 1 do
      Sim.Smp.add_task smp ~cpu:(p mod cpus)
        ~name:(Printf.sprintf "worker%d" p) (step p)
    done;
    Sim.Smp.run ~every:cfg.audit_every ~hook:audit smp;
    audit ();
    Machine.set_runnable_probe m None;
    let stats = m.Machine.stats in
    let caches = Physmem.cache_views pm in
    let rows =
      List.map
        (fun (cv : Sim.Smp.cpu_view) ->
          let cw = List.nth caches cv.Sim.Smp.cv_cpu in
          {
            sc_cpu = cv.Sim.Smp.cv_cpu;
            sc_now_us = cv.Sim.Smp.cv_now_us;
            sc_quanta = cv.Sim.Smp.cv_quanta;
            sc_wait_us = cv.Sim.Smp.cv_wait_us;
            sc_bounces = cv.Sim.Smp.cv_bounces;
            sc_wait_by_class = cv.Sim.Smp.cv_wait_by_class;
            sc_faults = cv.Sim.Smp.cv_stats.Sim.Stats.faults;
            sc_cache_hits = cw.Physmem.cw_hits;
            sc_cache_misses = cw.Physmem.cw_misses;
            sc_refills = cw.Physmem.cw_refills;
            sc_steals = cw.Physmem.cw_steals;
          })
        (Sim.Smp.cpu_views smp)
    in
    {
      kr_system = V.name;
      kr_cpus = cpus;
      kr_wall_us = Sim.Smp.wall_us smp;
      kr_quanta = Sim.Smp.quanta smp;
      kr_total_wait_us = Sim.Smp.total_wait_us smp;
      kr_total_bounces = Sim.Smp.total_bounces smp;
      kr_wait_by_class = Sim.Smp.wait_by_class smp;
      kr_fast_hits = stats.Sim.Stats.lookup_fast_hits;
      kr_locked_lookups = stats.Sim.Stats.lookup_locked;
      kr_faults = stats.Sim.Stats.faults;
      kr_audits = !audits;
      kr_audit_failures = List.rev !failures;
      kr_cpu_rows = rows;
    }
end

module Uvm_run = Run (Uvm.Sys)
module Bsd_run = Run (Bsdvm.Sys)

let run ?(quick = false) ~cpus ~seed () =
  let c = cfg ~quick ~cpus ~seed () in
  Machine.reset_traced ();
  let sys_result measure =
    let base = measure c ~cpus:1 in
    let par = if cpus = 1 then base else measure c ~cpus in
    { ss_system = base.kr_system; ss_base = base; ss_par = par }
  in
  let uvm = sys_result Uvm_run.measure in
  let bsd = sys_result Bsd_run.measure in
  Machine.reset_traced ();
  { sm_cpus = cpus; sm_seed = c.seed; sm_systems = [ uvm; bsd ] }

(* -- exports ------------------------------------------------------------ *)

let json_waits =
  Sim.Json.list (fun (c, w) ->
      Sim.Json.Object [ ("class", String c); ("wait_us", Sim.Json.float w) ])

let json_run (r : kernel_run) =
  let f = Sim.Json.float in
  let cpu row =
    Sim.Json.Object
      [ ("cpu", Int row.sc_cpu); ("now_us", f row.sc_now_us);
        ("quanta", Int row.sc_quanta); ("wait_us", f row.sc_wait_us);
        ("bounces", Int row.sc_bounces); ("faults", Int row.sc_faults);
        ("cache_hits", Int row.sc_cache_hits);
        ("cache_misses", Int row.sc_cache_misses);
        ("refills", Int row.sc_refills); ("steals", Int row.sc_steals);
        ("wait_by_class", json_waits row.sc_wait_by_class) ]
  in
  Sim.Json.Object
    [ ("cpus", Int r.kr_cpus); ("wall_us", f r.kr_wall_us);
      ("quanta", Int r.kr_quanta); ("lock_wait_us", f r.kr_total_wait_us);
      ("line_bounces", Int r.kr_total_bounces); ("faults", Int r.kr_faults);
      ("lookup_fast_hits", Int r.kr_fast_hits);
      ("lookup_locked", Int r.kr_locked_lookups);
      ("fast_hit_rate", Sim.Json.float ~decimals:4 (fast_rate r));
      ("audits", Int r.kr_audits);
      ( "audit_failures",
        Sim.Json.list (fun s -> Sim.Json.String s) r.kr_audit_failures );
      ("wait_by_class", json_waits r.kr_wait_by_class);
      ("cpus_detail", Sim.Json.list cpu r.kr_cpu_rows) ]

let json r =
  let system s =
    let top_cls, top_us = top_wait s.ss_par in
    Sim.Json.Object
      [ ("system", String s.ss_system);
        ("speedup", Sim.Json.float ~decimals:4 (speedup s));
        ("top_wait_class", String top_cls);
        ("top_wait_us", Sim.Json.float top_us);
        ("fast_hit_rate", Sim.Json.float ~decimals:4 (fast_rate s.ss_par));
        ("baseline", json_run s.ss_base); ("parallel", json_run s.ss_par) ]
  in
  Sim.Json.Object
    [ ("schema", String "uvm-sim-smp/1"); ("cpus", Int r.sm_cpus);
      ("seed", Int r.sm_seed); ("systems", Sim.Json.list system r.sm_systems) ]

let print r =
  Report.title "Simulated SMP: measured contention at %d CPUs" r.sm_cpus;
  List.iter
    (fun s ->
      let p = s.ss_par in
      Printf.printf
        "\n%s: wall %.0f us on 1 cpu -> %.0f us on %d (speedup %.2fx)\n"
        s.ss_system s.ss_base.kr_wall_us p.kr_wall_us p.kr_cpus (speedup s);
      Printf.printf
        "  lock wait %.0f us, %d line bounces, %d faults, fast-path %.0f%% \
         (%d hits / %d locked), %d audits%s\n"
        p.kr_total_wait_us p.kr_total_bounces p.kr_faults
        (100.0 *. fast_rate p)
        p.kr_fast_hits p.kr_locked_lookups p.kr_audits
        (match p.kr_audit_failures with
        | [] -> ""
        | fs -> Printf.sprintf ", %d FAILED" (List.length fs));
      List.iter
        (fun f -> Printf.printf "  AUDIT FAILURE: %s\n" f)
        p.kr_audit_failures;
      if p.kr_wait_by_class <> [] then begin
        Printf.printf "  %-12s %14s\n" "class" "wait_us";
        List.iter
          (fun (c, w) -> Printf.printf "  %-12s %14.1f\n" c w)
          p.kr_wait_by_class
      end;
      Printf.printf "  %-5s %12s %8s %10s %8s %8s %8s %8s\n" "cpu" "now_us"
        "quanta" "wait_us" "bounce" "faults" "hits" "refill";
      List.iter
        (fun row ->
          Printf.printf "  %-5d %12.0f %8d %10.1f %8d %8d %8d %8d\n" row.sc_cpu
            row.sc_now_us row.sc_quanta row.sc_wait_us row.sc_bounces
            row.sc_faults row.sc_cache_hits row.sc_refills)
        p.kr_cpu_rows)
    r.sm_systems
