(** Tier-failure resilience: fast-tier death mid-stream.

    Not a paper artifact: an evaluation of the tiered-swap failure model
    layered onto the reproduction (DESIGN.md §12).  Both VM systems boot
    the same two-tier machine — a fast/small NVMe-like swap device in
    front of a slow/large disk-like one — and run the same workload:

    1. an anonymous working set larger than RAM, paged out (mostly to the
       fast tier, which allocates first);
    2. a patterned file streamed through a small RAM, so the pagedaemon
       reclaims the clean vnode pages and spills them into the swapcache
       on the fast tier;
    3. a second streaming pass that re-faults from the swapcache — and
       halfway through that pass the fast tier dies.

    The workload then simply continues: the stream falls back to the
    vnode, new pageouts land on the slow tier, and the pagedaemon drains
    the dead device by migrating its surviving slots.  At the end every
    anonymous page and every file page is verified and the cross-tier
    invariant audit runs with a dead, drained device in the set.  The
    numbers to watch: [lost] must be 0 for both systems, the cache hit
    rate before death must be positive, and the per-page stream latency
    shows what the cache was buying. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine

type tier_row = {
  tr_name : string;
  tr_priority : int;
  tr_capacity : int;
  tr_in_use : int;
  tr_alive : bool;
  tr_draining : bool;
  tr_pageouts : int;
  tr_pageins : int;
  tr_migrated_out : int;
  tr_cache_slots : int;
}

type row = {
  rs_system : string;
  rs_survived : bool;  (** all data verified, audit clean *)
  rs_lost_pages : int;
  rs_migrations : int;
  rs_failovers : int;
  rs_devices_dead : int;
  rs_cache_fills : int;
  rs_cache_hits_before : int;  (** hits before the device died *)
  rs_cache_hits : int;
  rs_cache_evictions : int;
  rs_hit_rate_before : float;  (** hits / streamed pages before death *)
  rs_us_per_page_before : float;  (** stream latency, cache alive *)
  rs_us_per_page_after : float;  (** stream latency, cache gone *)
  rs_time_us : float;
  rs_tiers : tier_row list;
}

type cfg = {
  ram_pages : int;
  fast_pages : int;
  slow_pages : int;
  anon_pages : int;  (** anonymous working set, > RAM *)
  file_pages : int;  (** streamed file size *)
}

(* The anonymous set must exceed RAM (so it pages out) but stay well
   under the fast tier's capacity: the headroom left on the fast device
   is exactly the room the swapcache has to work with. *)
let full_cfg =
  {
    ram_pages = 512;
    fast_pages = 2048;
    slow_pages = 8192;
    anon_pages = 1024;
    file_pages = 1024;
  }

let quick_cfg =
  {
    ram_pages = 256;
    fast_pages = 1024;
    slow_pages = 4096;
    anon_pages = 512;
    file_pages = 384;
  }

let anon_tag i = Printf.sprintf "an%06d" i
let file_tag i = Printf.sprintf "fp%06d" i

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  let measure cfg =
    let config =
      Machine.tiered ~fast_pages:cfg.fast_pages ~slow_pages:cfg.slow_pages
        { Machine.default_config with Machine.ram_pages = cfg.ram_pages }
    in
    let sys = V.boot ~config () in
    let mach = V.machine sys in
    let st = mach.Machine.stats in
    let swap = mach.Machine.swap in
    let ps = Machine.page_size mach in
    let vm = V.new_vmspace sys in
    let t_start = Machine.now mach in
    (* Anonymous working set larger than RAM: paged out, fast tier first. *)
    let anon =
      V.mmap sys vm ~npages:cfg.anon_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    for i = 0 to cfg.anon_pages - 1 do
      V.write_bytes sys vm
        ~addr:((anon + i) * ps)
        (Bytes.of_string (anon_tag i))
    done;
    (* A patterned file to stream. *)
    let vfs = mach.Machine.vfs in
    let vn =
      Vfs.create_file vfs ~name:"/data/stream" ~size:(cfg.file_pages * ps)
    in
    let w =
      V.mmap sys vm ~npages:cfg.file_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Shared
        (Vmtypes.File (vn, 0))
    in
    for i = 0 to cfg.file_pages - 1 do
      V.write_bytes sys vm ~addr:((w + i) * ps) (Bytes.of_string (file_tag i))
    done;
    V.msync sys vm ~vpn:w ~npages:cfg.file_pages;
    V.munmap sys vm ~vpn:w ~npages:cfg.file_pages;
    (* One whole-file verified pass over a fresh mapping.  [at_page], if
       given, runs mid-stream (the kill switch). *)
    let lost = ref 0 in
    let stream ?at_page ?(on_page = fun _ -> ()) () =
      let vpn =
        V.mmap sys vm ~npages:cfg.file_pages ~prot:Pmap.Prot.read
          ~share:Vmtypes.Shared
          (Vmtypes.File (vn, 0))
      in
      for i = 0 to cfg.file_pages - 1 do
        (match at_page with Some (p, f) when p = i -> f () | _ -> ());
        let got = V.read_bytes sys vm ~addr:((vpn + i) * ps) ~len:8 in
        if Bytes.to_string got <> file_tag i then incr lost;
        on_page i
      done;
      V.munmap sys vm ~vpn ~npages:cfg.file_pages
    in
    (* Pass 1: memory pressure reclaims the clean streamed pages; the
       pagedaemon spills them into the swapcache on the fast tier. *)
    stream ();
    (* Pass 2: the first half re-faults from the swapcache; at the
       midpoint the fast tier dies and the rest falls back to the vnode. *)
    let half = cfg.file_pages / 2 in
    let hits0 = st.Sim.Stats.swap_cache_hits in
    let t_half = ref 0.0 and t_done = ref 0.0 in
    let hits_before = ref 0 in
    let t0 = Machine.now mach in
    stream
      ~at_page:
        ( half,
          fun () ->
            t_half := Machine.now mach;
            hits_before := st.Sim.Stats.swap_cache_hits - hits0;
            Swap.Swaptier.kill_device swap ~name:"fast" )
      ~on_page:(fun i ->
        if i = cfg.file_pages - 1 then t_done := Machine.now mach)
      ();
    let us_before = (!t_half -. t0) /. float_of_int (max 1 half) in
    let us_after =
      (!t_done -. !t_half) /. float_of_int (max 1 (cfg.file_pages - half))
    in
    (* Life goes on: rewrite half the anonymous set (new pageouts must
       land on the slow tier; the pagedaemon's drain migrates the dead
       device's surviving slots), then verify every anonymous page and
       stream the file once more. *)
    for i = 0 to (cfg.anon_pages / 2) - 1 do
      V.write_bytes sys vm
        ~addr:((anon + i) * ps)
        (Bytes.of_string (anon_tag i))
    done;
    for i = 0 to cfg.anon_pages - 1 do
      let got = V.read_bytes sys vm ~addr:((anon + i) * ps) ~len:8 in
      if Bytes.to_string got <> anon_tag i then incr lost
    done;
    stream ();
    (* The cross-tier audit must hold with a dead, drained device in the
       set: every slot charged to exactly one owner, none on dead media. *)
    V.audit sys;
    let time_us = Machine.now mach -. t_start in
    let tiers =
      List.map
        (fun (ti : Swap.Swaptier.tier_info) ->
          {
            tr_name = ti.Swap.Swaptier.ti_name;
            tr_priority = ti.ti_priority;
            tr_capacity = ti.ti_capacity;
            tr_in_use = ti.ti_in_use;
            tr_alive = ti.ti_alive;
            tr_draining = ti.ti_draining;
            tr_pageouts = ti.ti_pageouts;
            tr_pageins = ti.ti_pageins;
            tr_migrated_out = ti.ti_migrated_out;
            tr_cache_slots = ti.ti_cache_slots;
          })
        (Swap.Swaptier.tiers swap)
    in
    Vfs.vrele vfs vn;
    {
      rs_system = V.name;
      rs_survived = !lost = 0;
      rs_lost_pages = !lost;
      rs_migrations = st.Sim.Stats.swap_migrations;
      rs_failovers = st.Sim.Stats.swap_failovers;
      rs_devices_dead = st.Sim.Stats.swap_devices_dead;
      rs_cache_fills = st.Sim.Stats.swap_cache_fills;
      rs_cache_hits_before = !hits_before;
      rs_cache_hits = st.Sim.Stats.swap_cache_hits;
      rs_cache_evictions = st.Sim.Stats.swap_cache_evictions;
      rs_hit_rate_before = float_of_int !hits_before /. float_of_int (max 1 half);
      rs_us_per_page_before = us_before;
      rs_us_per_page_after = us_after;
      rs_time_us = time_us;
      rs_tiers = tiers;
    }
end

module U = Make (Uvm.Sys)
module B = Make (Bsdvm.Sys)

type result = row list

let run ?(quick = false) () : result =
  let cfg = if quick then quick_cfg else full_cfg in
  [ B.measure cfg; U.measure cfg ]

let print (rows : result) =
  Report.title
    "Resilience: fast swap tier dies mid-stream (all data verified, audit run \
     post-mortem)";
  Printf.printf "%-8s %-9s %5s %7s %8s %7s %7s %9s %10s %10s %10s\n" "system"
    "survived" "lost" "migrate" "failover" "fills" "hits" "hit-rate" "us/pg-pre"
    "us/pg-post" "time";
  List.iter
    (fun r ->
      Printf.printf
        "%-8s %-9s %5d %7d %8d %7d %7d %8.1f%% %10.1f %10.1f %9.3fs\n"
        r.rs_system
        (if r.rs_survived then "yes" else "NO")
        r.rs_lost_pages r.rs_migrations r.rs_failovers r.rs_cache_fills
        r.rs_cache_hits
        (100.0 *. r.rs_hit_rate_before)
        r.rs_us_per_page_before r.rs_us_per_page_after (r.rs_time_us /. 1e6);
      List.iter
        (fun t ->
          Printf.printf
            "         tier %-6s prio=%d cap=%-6d in_use=%-5d %s%s out=%d \
             in=%d migrated=%d cache=%d\n"
            t.tr_name t.tr_priority t.tr_capacity t.tr_in_use
            (if t.tr_alive then "alive" else "dead ")
            (if t.tr_draining then " draining" else "")
            t.tr_pageouts t.tr_pageins t.tr_migrated_out t.tr_cache_slots)
        r.rs_tiers)
    rows

let json (rows : result) =
  let f = Sim.Json.float in
  let tier t =
    Sim.Json.Object
      [ ("name", String t.tr_name); ("priority", Int t.tr_priority);
        ("capacity", Int t.tr_capacity); ("in_use", Int t.tr_in_use);
        ("alive", Bool t.tr_alive); ("draining", Bool t.tr_draining);
        ("pageouts", Int t.tr_pageouts); ("pageins", Int t.tr_pageins);
        ("migrated_out", Int t.tr_migrated_out);
        ("cache_slots", Int t.tr_cache_slots) ]
  in
  let row r =
    Sim.Json.Object
      [ ("system", String r.rs_system); ("survived", Bool r.rs_survived);
        ("lost_pages", Int r.rs_lost_pages); ("migrations", Int r.rs_migrations);
        ("failovers", Int r.rs_failovers);
        ("devices_dead", Int r.rs_devices_dead);
        ("cache_fills", Int r.rs_cache_fills);
        ("cache_hits_before", Int r.rs_cache_hits_before);
        ("cache_hits", Int r.rs_cache_hits);
        ("cache_evictions", Int r.rs_cache_evictions);
        ("hit_rate_before", Sim.Json.float ~decimals:4 r.rs_hit_rate_before);
        ("us_per_page_before", f r.rs_us_per_page_before);
        ("us_per_page_after", f r.rs_us_per_page_after);
        ("time_us", f r.rs_time_us); ("tiers", Sim.Json.list tier r.rs_tiers) ]
  in
  Sim.Json.Object
    [ ("schema", String "uvm-sim-resilience/1");
      ("rows", Sim.Json.list row rows) ]
