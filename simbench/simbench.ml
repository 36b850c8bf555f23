(* One repetition of one simulator benchmark workload.

   The workload's op stream is generated from the seed, then interpreted
   on a UVM kernel and afterwards on a BSD VM kernel through the public
   [Vm_sig.VM_SYS], [Procsim], [Ipc] and [Vfs] interfaces.  The client is a
   closed loop: one single-threaded caller issues each op after the
   previous one returns.

     simbench.exe --workload (paging|shell|sweep) --seed N [--trace] [--quick]

   prints one JSON object: this repetition's metrics, the names of those
   that are deterministic, failure counts and provenance.  run.py runs
   each repetition in a fresh process (so the process-global registries
   cannot couple repetitions) and aggregates them. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine
module Stats = Sim.Stats
module Span = Sim.Span

(* -- the op stream ---------------------------------------------------- *)

type machine_spec = { ram_mb : int; swap_mb : int; tiered : bool }

(* Processes and regions are named by small slot numbers; the
   interpreter binds them to vmspaces and virtual page numbers. *)
type op =
  | Boot of machine_spec  (** drop the current machine, processes live *)
  | Create_file of int
  | Spawn of { p : int; prog : int }
  | Replay of int  (** replay process [p]'s program command trace *)
  | Fork of { parent : int; child : int }
  | Exit of int
  | Mmap_anon of { p : int; r : int; npages : int }  (** private zero-fill *)
  | Mmap_file of { p : int; r : int; file : int }  (** shared, whole file *)
  | Munmap of { p : int; r : int }
  | Touch of { p : int; r : int; page : int; write : bool }
  | Write_tag of { p : int; r : int; page : int; tag : int }
  | Check_tag of { p : int; r : int; page : int }
  | Msync of { p : int; r : int }
  | Pipe of {
      src : int;
      dst : int;
      r : int;
      page : int;
      npages : int;
      policy : Ipc.policy;
    }  (** send pages of [src]'s region [r] to [dst] through a pipe *)
  | Audit

type workload = {
  setup : op list;  (** run per kernel before the timed phase *)
  run : op array;  (** the timed phase *)
  params : (string * int) list;
  audit_timed : bool;  (** audits count in run_s (sweep only) *)
}

let programs = Oslayer.Programs.[| ls; cat; od; finger; man; sh; getty; cron |]
let cat = 1

(* Command traces by program name, built during set-up. *)
let traces =
  lazy
    (let t = Hashtbl.create 16 in
     Array.iter
       (fun (prog : Oslayer.Programs.t) ->
         Hashtbl.replace t prog.name (Oslayer.Trace.command_trace prog))
       programs;
     t)

let file_pages = 16
let file_name i = Printf.sprintf "/bench/file%03d" i
let policies = [| Ipc.Copy; Ipc.Loan; Ipc.Mexp |]

(* A tag is 8 bytes written at [tag_off] within a page. *)
let tag_off = 512

let tag_bytes tag =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int tag);
  b

let new_tag rng = 1 + Sim.Rng.int rng 0x3fffffff

(* -- generators --------------------------------------------------------- *)

let emitter () =
  let ops = ref [] in
  ((fun op -> ops := op :: !ops), fun () -> Array.of_list (List.rev !ops))

(* Fill region 0 of [p]: write every page, tag every 16th. *)
let fill emit rng ~p ~npages =
  for page = 0 to npages - 1 do
    emit (Touch { p; r = 0; page; write = true });
    if page mod 16 = 0 then emit (Write_tag { p; r = 0; page; tag = new_tag rng })
  done

let tagged_page rng ~npages = 16 * Sim.Rng.int rng (npages / 16)

let paging ~quick rng =
  let spec =
    if quick then { ram_mb = 8; swap_mb = 32; tiered = false }
    else { ram_mb = 32; swap_mb = 128; tiered = false }
  in
  let nprocs = 4 in
  (* Four regions of 3/8 RAM each: 1.5x RAM in total. *)
  let npages = spec.ram_mb * 256 * 3 / 8 in
  let touches = if quick then 6_000 else 12_000 in
  let emit, ops = emitter () in
  for p = 0 to nprocs - 1 do
    emit (Spawn { p; prog = cat });
    emit (Mmap_anon { p; r = 0; npages })
  done;
  for p = 0 to nprocs - 1 do
    fill emit rng ~p ~npages
  done;
  emit Audit;
  let child = nprocs in
  emit (Fork { parent = 0; child });
  fill emit rng ~p:child ~npages:(npages / 4);
  emit Audit;
  for i = 1 to touches do
    let p = Sim.Rng.int rng (nprocs + 1) in
    let page = Sim.Rng.int rng npages in
    emit (Touch { p; r = 0; page; write = Sim.Rng.int rng 4 = 0 });
    if i mod 64 = 0 then
      emit
        (Check_tag
           { p = Sim.Rng.int rng (nprocs + 1); r = 0; page = tagged_page rng ~npages });
    if i mod 512 = 0 then
      emit
        (Write_tag { p; r = 0; page = tagged_page rng ~npages; tag = new_tag rng })
  done;
  for p = 0 to nprocs do
    for k = 0 to (npages / 16) - 1 do
      emit (Check_tag { p; r = 0; page = 16 * k })
    done
  done;
  emit Audit;
  for p = nprocs downto 0 do
    emit (Exit p)
  done;
  emit Audit;
  {
    setup = [ Boot spec ];
    run = ops ();
    params =
      [
        ("ram_mb", spec.ram_mb);
        ("processes", nprocs + 1);
        ("region_pages", npages);
        ("random_touches", touches);
      ];
    audit_timed = false;
  }

(* [n] values with exact proportions, in seeded order. *)
let balanced rng n f =
  let a = Array.init n f in
  Sim.Rng.shuffle rng a;
  a

let shell ~quick rng =
  let spec = { ram_mb = 64; swap_mb = 128; tiered = false } in
  (* More files than BSD VM's 100-entry object cache. *)
  let nfiles = if quick then 120 else 300 in
  let iters = if quick then 150 else 1000 in
  (* Each iteration's program, file, write-or-read, pipe size and policy
     come in exact proportions, so the seed only changes their order and
     pairing. *)
  let progs = balanced rng iters (fun i -> i mod Array.length programs) in
  let files = balanced rng iters (fun i -> i mod nfiles) in
  let writes = balanced rng iters (fun i -> i mod 5 = 0) in
  let sizes = balanced rng iters (fun i -> 1 + (i mod 8)) in
  let pols = balanced rng iters (fun i -> policies.(i mod Array.length policies)) in
  let emit, ops = emitter () in
  for it = 1 to iters do
    let i = it - 1 in
    emit (Spawn { p = 0; prog = progs.(i) });
    emit (Replay 0);
    emit (Mmap_file { p = 0; r = 1; file = files.(i) });
    if writes.(i) then begin
      emit
        (Write_tag
           { p = 0; r = 1; page = Sim.Rng.int rng file_pages; tag = new_tag rng });
      emit (Msync { p = 0; r = 1 })
    end
    else begin
      for page = 0 to file_pages - 1 do
        emit (Touch { p = 0; r = 1; page; write = false })
      done;
      emit (Check_tag { p = 0; r = 1; page = Sim.Rng.int rng file_pages })
    end;
    emit (Fork { parent = 0; child = 1 });
    let npages = sizes.(i) in
    emit
      (Pipe
         {
           src = 0;
           dst = 1;
           r = 1;
           page = Sim.Rng.int rng (file_pages - npages + 1);
           npages;
           policy = pols.(i);
         });
    emit (Munmap { p = 0; r = 1 });
    emit (Exit 1);
    emit (Exit 0);
    if it mod 500 = 0 || it = iters then emit Audit
  done;
  {
    setup = Boot spec :: List.init nfiles (fun f -> Create_file f);
    run = ops ();
    params =
      [
        ("ram_mb", spec.ram_mb);
        ("files", nfiles);
        ("file_pages", file_pages);
        ("iterations", iters);
      ];
    audit_timed = false;
  }

let sweep ~quick rng =
  (* Every RAM size meets both swap layouts equally often, and the
     programs and pipe sizes are dealt in turn; the seed shuffles the
     machines, so the total work hardly depends on it. *)
  let rams = if quick then [ 4 ] else [ 4; 8 ] in
  let layouts = if quick then [ false; true; false ] else [ false; true; false; true ] in
  let specs =
    Array.of_list
      (List.concat_map
         (fun ram_mb ->
           List.map (fun tiered -> { ram_mb; swap_mb = 4 * ram_mb; tiered }) layouts)
         rams)
  in
  Sim.Rng.shuffle rng specs;
  let touches = 1500 in
  let emit, ops = emitter () in
  Array.iteri
    (fun i spec ->
      emit (Boot spec);
      let npages = spec.ram_mb * 256 * 5 / 4 in
      emit (Spawn { p = 0; prog = i mod Array.length programs });
      emit (Replay 0);
      emit (Mmap_anon { p = 0; r = 0; npages });
      fill emit rng ~p:0 ~npages;
      emit (Fork { parent = 0; child = 1 });
      fill emit rng ~p:1 ~npages:(npages / 4);
      let n = 1 + (i mod 8) in
      emit
        (Pipe
           {
             src = 0;
             dst = 1;
             r = 0;
             page = Sim.Rng.int rng (npages - n + 1);
             npages = n;
             policy = policies.(i mod Array.length policies);
           });
      for _ = 1 to touches do
        emit
          (Touch
             {
               p = Sim.Rng.int rng 2;
               r = 0;
               page = Sim.Rng.int rng npages;
               write = Sim.Rng.int rng 4 = 0;
             })
      done;
      for _ = 1 to 16 do
        emit (Check_tag { p = Sim.Rng.int rng 2; r = 0; page = tagged_page rng ~npages })
      done;
      emit Audit)
    specs;
  {
    setup = [];
    run = ops ();
    params = [ ("machines", Array.length specs); ("touches_per_machine", touches) ];
    audit_timed = true;
  }

(* -- per-kernel measurements ------------------------------------------- *)

(* The layer entry points timed one call at a time in traced runs. *)
let op_names =
  [|
    "boot"; "mmap"; "munmap"; "touch"; "fork"; "exit"; "msync"; "spawn";
    "ipc_send"; "ipc_recv"; "audit";
  |]

let boot_i = 0
and mmap_i = 1
and munmap_i = 2
and touch_i = 3
and fork_i = 4
and exit_i = 5
and msync_i = 6
and spawn_i = 7
and send_i = 8
and recv_i = 9
and audit_i = 10

(* Ops that charge simulated time (boot and audit charge none). *)
let sim_timed_ops =
  [ mmap_i; munmap_i; touch_i; fork_i; exit_i; msync_i; spawn_i; send_i; recv_i ]

type opstat = {
  mutable calls : int;
  mutable host_ns : int;
  mutable words : float;
  mutable op_sim_us : float;
}

type kresult = {
  kname : string;
  opstats : opstat array;
  stats : Stats.t;  (** summed over the timed phase of every machine *)
  mutable sim_us : float;
  mutable lat : float array;  (** simulated latency of each faulting touch *)
  mutable nlat : int;
  self_us : (string, float) Hashtbl.t;  (** span self time per subsystem *)
  mutable pagequeue_hold_us : float;
  mutable root_us : float;
  mutable self_total_us : float;
  mutable spans_dropped : int;
  reads : (int, string) Hashtbl.t;  (** op index -> bytes it observed *)
  failures : (string, int) Hashtbl.t;
  mutable attempted : int;
  mutable setup_ns : int;
  mutable run_ns : int;
  mutable create_file_ns : int;
  mutable excluded_ns : int;  (** audits inside the timed phase *)
  mutable excluded_words : float;
  mutable run_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let new_kresult kname =
  {
    kname;
    opstats =
      Array.map
        (fun _ -> { calls = 0; host_ns = 0; words = 0.0; op_sim_us = 0.0 })
        op_names;
    stats = Stats.create ();
    sim_us = 0.0;
    lat = Array.make 4096 0.0;
    nlat = 0;
    self_us = Hashtbl.create 16;
    pagequeue_hold_us = 0.0;
    root_us = 0.0;
    self_total_us = 0.0;
    spans_dropped = 0;
    reads = Hashtbl.create 1024;
    failures = Hashtbl.create 8;
    attempted = 0;
    setup_ns = 0;
    run_ns = 0;
    create_file_ns = 0;
    excluded_ns = 0;
    excluded_words = 0.0;
    run_words = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0)

let push_lat k v =
  if k.nlat = Array.length k.lat then begin
    let a = Array.make (2 * k.nlat) 0.0 in
    Array.blit k.lat 0 a 0 k.nlat;
    k.lat <- a
  end;
  k.lat.(k.nlat) <- v;
  k.nlat <- k.nlat + 1

let count tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let fail k kind = count k.failures kind 1

let failure_kind = function
  | Vmtypes.Segv _ -> "segv"
  | Physmem.Out_of_pages -> "out_of_pages"
  | Invalid_argument _ -> "invalid_argument"
  | Check.Audit_failure _ -> "audit"
  | e -> "exception:" ^ Printexc.exn_slot_name e

(* Span self time is keyed by subsystem; lock holds ("lock:<class>"
   spans) become "lock.<class>" and the per-tier swap spans fold into
   "swap". *)
let self_key (sp : Span.span) =
  if String.starts_with ~prefix:"lock:" sp.Span.sname then "lock." ^ sp.Span.ssubsys
  else if String.starts_with ~prefix:"swap:" sp.Span.ssubsys then "swap"
  else sp.Span.ssubsys

let trace_capacity = 1 lsl 16

let config_of spec ~traced =
  let c = Machine.config_mb ~ram_mb:spec.ram_mb ~swap_mb:spec.swap_mb () in
  let c =
    if spec.tiered then
      let fast = c.Machine.swap_pages / 4 in
      Machine.tiered ~fast_pages:fast ~slow_pages:(c.Machine.swap_pages - fast) c
    else c
  in
  { c with Machine.trace_buf = (if traced then Some trace_capacity else None) }

(* -- the interpreter --------------------------------------------------- *)

module Kernel (V : Vmiface.Vm_sig.VM_SYS) = struct
  module P = Oslayer.Procsim.Make (V)
  module I = P.I

  type proc = { vm : V.vmspace; pproc : P.proc option }
  type region = { vpn : int; npages : int; file : int option }

  type st = {
    k : kresult;
    traced : bool;
    mutable sys : V.sys option;
    procs : (int, proc) Hashtbl.t;
    regions : (int * int, region) Hashtbl.t;
    anon_tags : (int * int * int, int) Hashtbl.t;  (** (p, r, page) *)
    file_tags : (int * int, int) Hashtbl.t;  (** (file, page) *)
    mutable timing : bool;
    mutable t_base : float;
    mutable s_base : Stats.t;
    mutable pq_base : float;
  }

  let sys st = match st.sys with Some s -> s | None -> failwith "no machine"
  let mach st = V.machine (sys st)
  let now_us st = match st.sys with Some s -> Machine.now (V.machine s) | None -> 0.0
  let proc st p = Hashtbl.find st.procs p
  let region st p r = Hashtbl.find st.regions (p, r)

  (* Time one call into a layer (traced runs only): host ns, minor words
     and simulated time. *)
  let call st i f =
    if not st.traced then f ()
    else begin
      let os = st.k.opstats.(i) in
      let s0 = now_us st and w0 = Gc.minor_words () and t0 = now_ns () in
      let v = f () in
      let t1 = now_ns () in
      os.words <- os.words +. (Gc.minor_words () -. w0);
      os.host_ns <- os.host_ns + (t1 - t0);
      os.op_sim_us <- os.op_sim_us +. (now_us st -. s0);
      os.calls <- os.calls + 1;
      v
    end

  let hold_us m = Sim.Lockstat.class_hold_us m.Machine.locks "pagequeue"

  (* The timed phase on the current machine starts (paging/shell) ... *)
  let open_machine st =
    let m = mach st in
    st.s_base <- Stats.snapshot m.Machine.stats;
    st.t_base <- Machine.now m;
    st.pq_base <- hold_us m;
    Span.clear m.Machine.spans

  (* ... and ends, at the end of the run or when the next boot drops it. *)
  let close_machine st =
    match st.sys with
    | Some s when st.timing ->
        let m = V.machine s in
        Stats.add ~into:st.k.stats
          (Stats.diff ~after:m.Machine.stats ~before:st.s_base);
        st.k.sim_us <- st.k.sim_us +. (Machine.now m -. st.t_base);
        st.k.pagequeue_hold_us <- st.k.pagequeue_hold_us +. (hold_us m -. st.pq_base)
    | _ -> ()

  let touch st vm ~vpn access =
    let m = mach st in
    let s0 = Machine.now m and f0 = m.Machine.stats.Stats.faults in
    call st touch_i (fun () -> V.touch (sys st) vm ~vpn access);
    if m.Machine.stats.Stats.faults <> f0 then push_lat st.k (Machine.now m -. s0)

  let replay st p =
    let pr = proc st p in
    let pp =
      match pr.pproc with Some pp -> pp | None -> invalid_arg "replay: forked"
    in
    List.iter
      (fun (seg, page, access) ->
        let s =
          match seg with
          | Oslayer.Trace.Seg_text -> pp.P.text
          | Seg_data -> pp.P.data
          | Seg_bss -> pp.P.bss
          | Seg_stack -> pp.P.stack
          | Seg_heap -> pp.P.heap
          | Seg_lib i ->
              let _, t, _, _ = List.nth pp.P.lib_segs i in
              t
        in
        if page < s.P.seg_pages then touch st pr.vm ~vpn:(s.P.seg_vpn + page) access)
      (Hashtbl.find (Lazy.force traces) pp.P.prog.Oslayer.Programs.name)

  let page_size st = Machine.page_size (mach st)

  let tag_addr st reg page = ((reg.vpn + page) * page_size st) + tag_off

  let expected st ~p ~r reg page =
    match reg.file with
    | Some f -> (
        match Hashtbl.find_opt st.file_tags (f, page) with
        | Some tag -> tag_bytes tag
        | None ->
            Bytes.init 8 (fun i ->
                Vfs.file_byte ~name:(file_name f)
                  ~off:((page * page_size st) + tag_off + i)))
    | None -> (
        match Hashtbl.find_opt st.anon_tags (p, r, page) with
        | Some tag -> tag_bytes tag
        | None -> Bytes.make 8 '\000')

  let drop_proc st p =
    Hashtbl.remove st.procs p;
    let keys tbl pred = Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) tbl [] in
    List.iter (Hashtbl.remove st.regions) (keys st.regions (fun (q, _) -> q = p));
    List.iter (Hashtbl.remove st.anon_tags) (keys st.anon_tags (fun (q, _, _) -> q = p))

  let pipe st idx ~src ~dst ~r ~page ~npages ~policy =
    let s = sys st and ps = page_size st in
    let svm = (proc st src).vm and dvm = (proc st dst).vm in
    let reg = region st src r in
    let addr = (reg.vpn + page) * ps and len = npages * ps in
    let sent = V.read_bytes s svm ~addr ~len in
    let ch = I.pipe s ~cap_bytes:len () in
    let buf =
      call st mmap_i (fun () ->
          V.mmap s dvm ~npages ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
            Vmtypes.Zero)
    in
    let n = call st send_i (fun () -> I.send s svm ch ~policy ~addr ~len) in
    let got =
      call st recv_i (fun () ->
          I.recv s dvm ~accept_mapped:(policy = Ipc.Mexp) ch ~addr:(buf * ps) ~len)
    in
    let rvpn, rlen, mapped =
      match got with
      | I.Data k -> (buf, k, None)
      | I.Mapped { vpn; npages; len } -> (vpn, len, Some (vpn, npages))
    in
    let received = V.read_bytes s dvm ~addr:(rvpn * ps) ~len:rlen in
    I.close s ch;
    Option.iter
      (fun (vpn, npages) -> call st munmap_i (fun () -> V.munmap s dvm ~vpn ~npages))
      mapped;
    call st munmap_i (fun () -> V.munmap s dvm ~vpn:buf ~npages);
    (* Cross-kernel comparison keeps each page's tag window. *)
    Hashtbl.replace st.k.reads idx
      (String.concat ""
         (List.init (rlen / ps) (fun i ->
              Bytes.sub_string received ((i * ps) + tag_off) 8)));
    if n <> len || not (Bytes.equal sent received) then fail st.k "ipc_mismatch"

  let audit st =
    let t0 = now_ns () and a0 = alloc_words () in
    Fun.protect
      ~finally:(fun () ->
        st.k.excluded_ns <- st.k.excluded_ns + (now_ns () - t0);
        st.k.excluded_words <- st.k.excluded_words +. (alloc_words () -. a0))
      (fun () -> call st audit_i (fun () -> V.audit (sys st)))

  let step st idx = function
    | Boot spec ->
        close_machine st;
        (* The previous machine is dropped with its processes live. *)
        st.sys <- None;
        Hashtbl.reset st.procs;
        Hashtbl.reset st.regions;
        Hashtbl.reset st.anon_tags;
        Hashtbl.reset st.file_tags;
        let s =
          call st boot_i (fun () ->
              let s = V.boot ~config:(config_of spec ~traced:st.traced) () in
              P.boot_kernel s;
              s)
        in
        if st.traced then Machine.reset_traced ();
        st.sys <- Some s;
        Span.clear (V.machine s).Machine.spans;
        if st.timing then begin
          (* Booted inside the timed phase: count the machine from zero. *)
          st.s_base <- Stats.create ();
          st.t_base <- 0.0;
          st.pq_base <- 0.0
        end
    | Create_file f ->
        let vfs = (mach st).Machine.vfs in
        let t0 = now_ns () in
        let vn = Vfs.create_file vfs ~name:(file_name f) ~size:(file_pages * page_size st) in
        Vfs.vrele vfs vn;
        st.k.create_file_ns <- st.k.create_file_ns + (now_ns () - t0)
    | Spawn { p; prog } ->
        let pp = call st spawn_i (fun () -> P.spawn (sys st) programs.(prog)) in
        Hashtbl.replace st.procs p { vm = pp.P.vm; pproc = Some pp }
    | Replay p -> replay st p
    | Fork { parent; child } ->
        let vm = call st fork_i (fun () -> V.fork (sys st) (proc st parent).vm) in
        Hashtbl.replace st.procs child { vm; pproc = None };
        (* The child inherits the parent's regions and anonymous tags. *)
        let copy_to_child tbl key_of =
          Hashtbl.fold
            (fun k v acc ->
              match key_of k with Some k' -> (k', v) :: acc | None -> acc)
            tbl []
          |> List.iter (fun (k, v) -> Hashtbl.replace tbl k v)
        in
        copy_to_child st.regions (fun (q, r) ->
            if q = parent then Some (child, r) else None);
        copy_to_child st.anon_tags (fun (q, r, pg) ->
            if q = parent then Some (child, r, pg) else None)
    | Exit p ->
        let pr = proc st p in
        call st exit_i (fun () ->
            match pr.pproc with
            | Some pp -> P.exit_proc (sys st) pp
            | None -> V.destroy_vmspace (sys st) pr.vm);
        drop_proc st p
    | Mmap_anon { p; r; npages } ->
        let vpn =
          call st mmap_i (fun () ->
              V.mmap (sys st) (proc st p).vm ~npages ~prot:Pmap.Prot.rw
                ~share:Vmtypes.Private Vmtypes.Zero)
        in
        Hashtbl.replace st.regions (p, r) { vpn; npages; file = None }
    | Mmap_file { p; r; file } ->
        let vfs = (mach st).Machine.vfs in
        let vn = Vfs.lookup vfs ~name:(file_name file) in
        let vpn =
          call st mmap_i (fun () ->
              V.mmap (sys st) (proc st p).vm ~npages:file_pages ~prot:Pmap.Prot.rw
                ~share:Vmtypes.Shared (Vmtypes.File (vn, 0)))
        in
        Vfs.vrele vfs vn;
        Hashtbl.replace st.regions (p, r) { vpn; npages = file_pages; file = Some file }
    | Munmap { p; r } ->
        let reg = region st p r in
        call st munmap_i (fun () ->
            V.munmap (sys st) (proc st p).vm ~vpn:reg.vpn ~npages:reg.npages);
        Hashtbl.remove st.regions (p, r)
    | Touch { p; r; page; write } ->
        touch st (proc st p).vm
          ~vpn:((region st p r).vpn + page)
          (if write then Vmtypes.Write else Vmtypes.Read)
    | Write_tag { p; r; page; tag } ->
        let reg = region st p r in
        V.write_bytes (sys st) (proc st p).vm ~addr:(tag_addr st reg page) (tag_bytes tag);
        (match reg.file with
        | Some f -> Hashtbl.replace st.file_tags (f, page) tag
        | None -> Hashtbl.replace st.anon_tags (p, r, page) tag)
    | Check_tag { p; r; page } ->
        let reg = region st p r in
        let got = V.read_bytes (sys st) (proc st p).vm ~addr:(tag_addr st reg page) ~len:8 in
        Hashtbl.replace st.k.reads idx (Bytes.to_string got);
        if not (Bytes.equal got (expected st ~p ~r reg page)) then fail st.k "tag_mismatch"
    | Msync { p; r } ->
        let reg = region st p r in
        call st msync_i (fun () ->
            V.msync (sys st) (proc st p).vm ~vpn:reg.vpn ~npages:reg.npages)
    | Pipe { src; dst; r; page; npages; policy } ->
        pipe st idx ~src ~dst ~r ~page ~npages ~policy
    | Audit -> audit st

  (* Fold one op's finished spans into the per-subsystem self times and
     empty the ring, so it never wraps. *)
  let drain st m (root : Span.span) =
    let spans = m.Machine.spans in
    if st.timing then begin
      let k = st.k in
      k.spans_dropped <- k.spans_dropped + Span.dropped spans;
      let sps =
        List.map (fun sp -> { sp with Span.ssubsys = self_key sp }) (Span.spans spans)
      in
      List.iter
        (fun (key, us) ->
          bump k.self_us key us;
          k.self_total_us <- k.self_total_us +. us)
        (Span.self_times sps);
      k.root_us <- k.root_us +. root.Span.sdur
    end;
    Span.clear spans

  (* Each op runs in its own root span (traced runs); a failure is
     counted, never raised. *)
  let exec st idx op =
    st.k.attempted <- st.k.attempted + 1;
    let root =
      match st.sys with
      | Some s when st.traced ->
          let m = V.machine s in
          let ts = Machine.now m in
          Some (m, Span.start m.Machine.spans ~subsys:"bench" ~ts "op")
      | _ -> None
    in
    (try step st idx op with e -> fail st.k (failure_kind e));
    Option.iter
      (fun (m, sp) ->
        Span.finish m.Machine.spans sp ~ts:(Machine.now m) ();
        drain st m sp)
      root

  let run ~traced kname (wl : workload) =
    let st =
      {
        k = new_kresult kname;
        traced;
        sys = None;
        procs = Hashtbl.create 8;
        regions = Hashtbl.create 8;
        anon_tags = Hashtbl.create 1024;
        file_tags = Hashtbl.create 1024;
        timing = false;
        t_base = 0.0;
        s_base = Stats.create ();
        pq_base = 0.0;
      }
    in
    let k = st.k in
    let t0 = now_ns () in
    List.iter (exec st (-1)) wl.setup;
    let t1 = now_ns () in
    k.setup_ns <- t1 - t0;
    let g0 = Gc.quick_stat () and a0 = alloc_words () in
    st.timing <- true;
    if Option.is_some st.sys then open_machine st;
    Array.iteri (exec st) wl.run;
    close_machine st;
    let t2 = now_ns () in
    let g1 = Gc.quick_stat () in
    k.run_ns <- t2 - t1;
    k.run_words <- alloc_words () -. a0;
    k.minor_gcs <- g1.Gc.minor_collections - g0.Gc.minor_collections;
    k.major_gcs <- g1.Gc.major_collections - g0.Gc.major_collections;
    k
end

module U = Kernel (Uvm.Sys)
module B = Kernel (Bsdvm.Sys)

(* -- metrics ------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Nearest-rank percentile. *)
let percentile sorted n q =
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

let kernel_metrics ~traced (k : kresult) =
  let pre s = k.kname ^ "." ^ s in
  let st = k.stats in
  let lat = Array.sub k.lat 0 k.nlat in
  Array.sort compare lat;
  let det =
    [
      ("sim_s", k.sim_us /. 1e6);
      ("fault_p50_sim_us", percentile lat k.nlat 0.50);
      ("fault_p99_sim_us", percentile lat k.nlat 0.99);
      ("fault_samples", fi k.nlat);
      ("faults", fi st.Stats.faults);
      ("physmem.pages_zeroed", fi st.Stats.pages_zeroed);
      ("physmem.pages_copied", fi st.Stats.pages_copied);
      ( "physmem.lookup_fast_ratio",
        ratio (fi st.Stats.lookup_fast_hits)
          (fi (st.Stats.lookup_fast_hits + st.Stats.lookup_locked)) );
      ("pmap.enters", fi st.Stats.pmap_enters);
      ("pmap.removes", fi st.Stats.pmap_removes);
      ("swap.pageouts", fi st.Stats.pageouts);
      ("swap.pageins", fi st.Stats.pageins);
      ( "swap.pages_per_write",
        ratio (fi st.Stats.disk_pages_written) (fi st.Stats.disk_write_ops) );
      ("map.entries_allocated", fi st.Stats.map_entries_allocated);
      ( "objcache.hit_ratio",
        ratio (fi st.Stats.obj_cache_hits)
          (fi (st.Stats.obj_cache_hits + st.Stats.obj_cache_misses)) );
      ( "fault_ahead.used_ratio",
        ratio (fi st.Stats.fault_ahead_used) (fi st.Stats.fault_ahead_mapped) );
      ("anon.allocated", fi st.Stats.anons_allocated);
      ("cow.copies", fi st.Stats.cow_copies);
      ("ipc.bytes_copied", fi st.Stats.ipc_bytes_copied);
      ("ipc.bytes_loaned", fi st.Stats.ipc_bytes_loaned);
      ("ipc.bytes_mapped", fi st.Stats.ipc_bytes_mapped);
    ]
  in
  let traced_det, traced_host =
    if not traced then ([], [])
    else
      let self key = Option.value (Hashtbl.find_opt k.self_us key) ~default:0.0 in
      let selfs =
        List.map
          (fun key -> ("self_sim_ms." ^ key, self key /. 1e3))
          [ "fault"; "pager"; "pdaemon"; "swap"; "ipc"; "lock.map"; "lock.amap"; "lock.object"; "lock.swap" ]
        @ [ ("self_sim_ms.lock.pagequeue", k.pagequeue_hold_us /. 1e3) ]
      in
      let per_call i v = ratio v (fi k.opstats.(i).calls) in
      let words =
        Array.to_list
          (Array.mapi
             (fun i n -> (n ^ ".words_per_call", per_call i k.opstats.(i).words))
             op_names)
      in
      let sims =
        List.map
          (fun i -> (op_names.(i) ^ ".sim_us_per_call", per_call i k.opstats.(i).op_sim_us))
          sim_timed_ops
      in
      let host =
        Array.to_list
          (Array.mapi (fun i n -> (n ^ ".host_ms", fi k.opstats.(i).host_ns /. 1e6)) op_names)
      in
      (selfs @ words @ sims, host)
  in
  let named = List.map (fun (n, v) -> (pre n, v)) in
  (named (det @ traced_det), named traced_host)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let json_metrics l = json_obj (List.map (fun (n, v) -> (n, json_float v)) l)

let main workload seed ~traced ~quick =
  let t0 = now_ns () in
  let gen =
    match workload with
    | "paging" -> paging
    | "shell" -> shell
    | "sweep" -> sweep
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let wl = gen ~quick (Sim.Rng.create ~seed) in
  ignore (Lazy.force traces);
  let gen_ns = now_ns () - t0 in
  let digest = Digest.to_hex (Digest.string (Marshal.to_string (wl.setup, wl.run) [])) in
  let u = U.run ~traced "uvm" wl in
  let b = B.run ~traced "bsd" wl in
  (* UVM and BSD VM must observe identical bytes for the same op. *)
  let diverged =
    Hashtbl.fold
      (fun idx s n -> if Hashtbl.find_opt b.reads idx = Some s then n else n + 1)
      u.reads 0
    + Hashtbl.fold (fun idx _ n -> if Hashtbl.mem u.reads idx then n else n + 1) b.reads 0
  in
  if diverged > 0 then count b.failures "kernel_divergence" diverged;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let mb words = fi words *. fi (Sys.word_size / 8) /. 1048576.0 in
  let ks = [ u; b ] in
  let sum f = List.fold_left (fun acc k -> acc + f k) 0 ks in
  let sumf f = List.fold_left (fun acc k -> acc +. f k) 0.0 ks in
  let excluded = if wl.audit_timed then 0 else sum (fun k -> k.excluded_ns) in
  let run_s = fi (sum (fun k -> k.run_ns) - excluded) /. 1e9 in
  let run_words =
    sumf (fun k -> k.run_words)
    -. if wl.audit_timed then 0.0 else sumf (fun k -> k.excluded_words)
  in
  let attempted = sum (fun k -> k.attempted) in
  let failures = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.iter (count failures) k.failures) ks;
  let failed = Hashtbl.fold (fun _ n acc -> acc + n) failures 0 in
  let det_u, host_u = kernel_metrics ~traced u in
  let det_b, host_b = kernel_metrics ~traced b in
  let deterministic =
    det_u @ det_b @ [ ("error_rate", ratio (fi failed) (fi attempted)) ]
  in
  let host =
    [
      ("setup_s", fi (gen_ns + sum (fun k -> k.setup_ns)) /. 1e9);
      ("run_s", run_s);
      ("sim_faults_per_s", fi (sum (fun k -> k.stats.Stats.faults)) /. run_s);
      ("peak_heap_mb", mb top_heap_words);
      ("alloc_mwords", run_words /. 1e6);
      ("gc.minor_collections", fi (sum (fun k -> k.minor_gcs)));
      ("gc.major_collections", fi (sum (fun k -> k.major_gcs)));
      ("gc.live_heap_mb_end", mb live_words);
    ]
    @ (if traced then
         [ ("vfs.create_file.host_ms", fi (sum (fun k -> k.create_file_ns)) /. 1e6) ]
       else [])
    @ host_u @ host_b
  in
  let root_us = sumf (fun k -> k.root_us) in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" workload);
         ("seed", string_of_int seed);
         ("traced", string_of_bool traced);
         ("quick", string_of_bool quick);
         ("params", json_obj (List.map (fun (n, v) -> (n, string_of_int v)) wl.params));
         ("ops", string_of_int (Array.length wl.run));
         ("op_stream_digest", Printf.sprintf "%S" digest);
         ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "failures",
           json_obj
             (Hashtbl.fold (fun k n acc -> (k, string_of_int n) :: acc) failures []) );
         ("spans_dropped", string_of_int (sum (fun k -> k.spans_dropped)));
         ( "telescope_error",
           json_float (ratio (Float.abs (sumf (fun k -> k.self_total_us) -. root_us)) root_us) );
         ("deterministic", "[" ^ String.concat "," (List.map (fun (n, _) -> Printf.sprintf "%S" n) deterministic) ^ "]");
         ("metrics", json_metrics (deterministic @ host));
       ])

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "paging|shell|sweep");
      ("--seed", Arg.Set_int seed, "N  op-stream seed");
      ("--trace", Arg.Set traced, " boot traced machines and time each layer call");
      ("--quick", Arg.Set quick, " small sizes, for the self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "simbench.exe --workload W --seed N [--trace] [--quick]";
  match main !workload !seed ~traced:!traced ~quick:!quick with
  | () -> ()
  | exception Invalid_argument msg ->
      prerr_endline ("simbench: " ^ msg);
      exit 2
