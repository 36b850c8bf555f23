type spec = {
  tier_name : string;
  tier_pages : int;
  tier_priority : int;
  tier_costs : Sim.Cost_model.t option;
}

type device = {
  dev_id : int;
  spec : spec;
  base : int;  (** global slot = base + device-local slot (locals start at 1) *)
  dev : Swapdev.t;
  span_key : string;  (** ["swap:<tier>"], the subsystem of its I/O spans *)
  mutable alive : bool;  (** false once the media died: writes fail permanently *)
  mutable offline : bool;  (** out of the allocation pool (death or swapoff) *)
  mutable draining : bool;  (** offline with slots still charged to owners *)
  mutable d_pageouts : int;
  mutable d_pageins : int;
  mutable d_migrated_out : int;
}

(* Swapcache keys: (vnode id, page number).  Both kernels name a file
   page the same way, so the cache layer needs no per-VM-system state. *)
type cache_key = int * int

type t = {
  devices : device array;  (** creation order; bases ascending *)
  bands : device array array;  (** grouped by priority, best band first *)
  clock : Sim.Simclock.t;
  stats : Sim.Stats.t;
  cache : (cache_key, int) Hashtbl.t;  (** key -> global slot *)
  cache_rev : (int, cache_key) Hashtbl.t;
  cache_fifo : cache_key Queue.t;  (** shed order under pressure *)
  mutable rr : int;  (** striping rotation within a priority band *)
  mutable drain_hook : (unit -> unit) option;
  mutable spans : Sim.Span.t option;
  mutable lockq : (Sim.Lockstat.t * Sim.Lockstat.lock) option;
}

(* Slots a cache fill must leave free on its device, so the cache never
   crowds dirty-pageout traffic out of the fast tier. *)
let cache_reserve = 8

let create ~specs ~page_size ~clock ~costs ~stats =
  if specs = [] then invalid_arg "Swaptier.create: no devices";
  let base = ref 0 in
  let devices =
    Array.of_list
      (List.mapi
         (fun i spec ->
           if spec.tier_pages < 1 then
             invalid_arg "Swaptier.create: empty device";
           let dev =
             Swapdev.create ~nslots:spec.tier_pages ~page_size ~clock
               ~costs:(Option.value spec.tier_costs ~default:costs)
               ~stats ()
           in
           let d =
             {
               dev_id = i;
               spec;
               base = !base;
               dev;
               span_key = "swap:" ^ spec.tier_name;
               alive = true;
               offline = false;
               draining = false;
               d_pageouts = 0;
               d_pageins = 0;
               d_migrated_out = 0;
             }
           in
           base := !base + spec.tier_pages;
           d)
         specs)
  in
  let order = Array.copy devices in
  Array.sort
    (fun a b ->
      compare
        (a.spec.tier_priority, a.dev_id)
        (b.spec.tier_priority, b.dev_id))
    order;
  let bands =
    Array.to_list order
    |> List.fold_left
         (fun acc d ->
           match acc with
           | (p, band) :: rest when p = d.spec.tier_priority ->
               (p, d :: band) :: rest
           | _ -> (d.spec.tier_priority, [ d ]) :: acc)
         []
    |> List.rev_map (fun (_, band) -> Array.of_list (List.rev band))
    |> Array.of_list
  in
  {
    devices;
    bands;
    clock;
    stats;
    cache = Hashtbl.create 64;
    cache_rev = Hashtbl.create 64;
    cache_fifo = Queue.create ();
    rr = 0;
    drain_hook = None;
    spans = None;
    lockq = None;
  }

let set_spans t s = t.spans <- s

let set_lockstat t reg =
  t.lockq <-
    Option.map
      (fun ls -> (ls, Sim.Lockstat.register ls ~cls:"swap" "swaptier"))
      reg

(* Every public tier entry point holds the swap-tier lock for its
   duration: [lock] on entry, [unlock] on every exit, an exception's
   included.  Nested calls (write_resilient -> write_cluster, drain ->
   migrate_slot) re-enter the same handle; the registry's recursion
   depth makes that one recorded outer hold, not two.  The slot and
   paging entry points, which every pageout and pagein take, spell the
   pair out so that they build no closure; the others use
   [with_tier_lock]. *)
let lock t ~mode =
  match t.lockq with
  | None -> ()
  | Some (ls, l) -> Sim.Lockstat.acquire ls l ~mode

let unlock t =
  match t.lockq with None -> () | Some (ls, l) -> Sim.Lockstat.release ls l

let unlock_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  unlock t;
  Printexc.raise_with_backtrace e bt

let with_tier_lock t ~mode f =
  lock t ~mode;
  match f () with
  | r ->
      unlock t;
      r
  | exception e -> unlock_reraise t e

(* Device I/O spans carry the tier in the subsystem key ("swap:slow"),
   so the critical-path breakdown attributes tail latency to the tier
   that caused it, not just "swap".  These wrappers stay local rather
   than using [Machine.span_start]: the tier sits below the machine, its
   collector is optional ([None] in standalone tests) and it reads its
   own clock.  A call site builds a span's detail only when
   [Sim.Span.live] says the span records. *)
let span_start t ~subsys name =
  match t.spans with
  | Some c when Sim.Span.enabled c ->
      Sim.Span.start c ~subsys ~ts:(Sim.Simclock.now t.clock) name
  | _ -> Sim.Span.dummy

let span_finish t sp detail =
  match t.spans with
  | Some c -> Sim.Span.finish_with c sp ~ts:(Sim.Simclock.now t.clock) detail
  | None -> ()

(* Tier events that take no time (a device dying, a slot blacklisted)
   are zero-length spans inside whatever span caused them. *)
let span_point t name detail =
  match t.spans with
  | Some c ->
      Sim.Span.point c ~subsys:"swap" ~ts:(Sim.Simclock.now t.clock) name detail
  | None -> ()

let result_str = function Ok () -> "ok" | Error _ -> "error"

(* A device read or write span: its global slot, page count and result. *)
let io_span_finish t sp ~slot ~n r =
  if Sim.Span.live sp then
    span_finish t sp (fun () ->
        [
          ("slot", string_of_int slot);
          ("pages", string_of_int n);
          ("result", result_str r);
        ])

let rec device_from devices ~slot i =
  if i >= Array.length devices then
    invalid_arg "Swaptier: slot outside every device"
  else
    let d = devices.(i) in
    if slot > d.base && slot <= d.base + d.spec.tier_pages then d
    else device_from devices ~slot (i + 1)

let device_of t ~slot = device_from t.devices ~slot 0

let find_device t name =
  Array.to_list t.devices
  |> List.find_opt (fun d -> d.spec.tier_name = name)

let device_exn t name =
  match find_device t name with
  | Some d -> d
  | None -> invalid_arg ("Swaptier: no device named " ^ name)

(* -- aggregate accounting -------------------------------------------- *)

let sum f t = Array.fold_left (fun acc d -> acc + f d) 0 t.devices

let capacity t = sum (fun d -> d.spec.tier_pages) t
let slots_in_use t = sum (fun d -> Swapdev.slots_in_use d.dev) t

let slots_usable t =
  sum
    (fun d ->
      if d.alive && not d.offline then Swapdev.slots_usable d.dev else 0)
    t

let is_bad_slot t ~slot =
  let d = device_of t ~slot in
  (not d.alive) || Swapdev.is_bad_slot d.dev ~slot:(slot - d.base)

let is_allocated_slot t ~slot =
  let d = device_of t ~slot in
  Swapdev.is_allocated_slot d.dev ~slot:(slot - d.base)

let disks t = Array.to_list t.devices |> List.map (fun d -> Swapdev.disk d.dev)

(* -- swapcache bookkeeping ------------------------------------------- *)

let cache_slots t = Hashtbl.length t.cache

let cache_drop t key =
  match Hashtbl.find_opt t.cache key with
  | None -> ()
  | Some g ->
      Hashtbl.remove t.cache key;
      Hashtbl.remove t.cache_rev g;
      let d = device_of t ~slot:g in
      Swapdev.free_slots d.dev ~slot:(g - d.base) ~n:1;
      t.stats.Sim.Stats.swap_cache_evictions <-
        t.stats.Sim.Stats.swap_cache_evictions + 1

(* Shed one cache entry in fill order; false when the cache is empty.
   The FIFO may hold keys already invalidated — skip them lazily. *)
let rec shed_one t =
  if Queue.is_empty t.cache_fifo then false
  else
    let key = Queue.pop t.cache_fifo in
    if Hashtbl.mem t.cache key then begin
      cache_drop t key;
      true
    end
    else shed_one t

(* -- allocation ------------------------------------------------------ *)

let allocatable d = d.alive && not d.offline

(* Priority-ordered first fit: walk bands best-first; within a band,
   rotate the starting device per successful allocation so equal-priority
   devices stripe.  Contiguous clusters never span devices.  Returns the
   global slot, 0 when no willing device has room. *)
let raw_alloc t ~n ~pred =
  let found = ref 0 in
  let b = ref 0 in
  while !found = 0 && !b < Array.length t.bands do
    let band = t.bands.(!b) in
    let len = Array.length band in
    let start = t.rr mod len in
    let i = ref 0 in
    while !found = 0 && !i < len do
      let d = band.((start + !i) mod len) in
      (if pred d then
         match Swapdev.alloc_slots d.dev ~n with
         | Some local -> found := d.base + local
         | None -> ());
      incr i
    done;
    incr b
  done;
  if !found <> 0 then t.rr <- t.rr + 1;
  !found

(* Degradation ladder, first rung: when no device can satisfy the
   allocation, sacrifice swapcache entries — they are redundant copies of
   clean file pages — and retry until it fits or the cache is dry. *)
let rec alloc_where t ~n ~pred =
  let g = raw_alloc t ~n ~pred in
  if g <> 0 then g else if shed_one t then alloc_where t ~n ~pred else 0

let alloc_slots t ~n =
  lock t ~mode:Sim.Lockstat.Write;
  match alloc_where t ~n ~pred:allocatable with
  | 0 ->
      unlock t;
      None
  | g ->
      unlock t;
      Some g
  | exception e -> unlock_reraise t e

let free_slots t ~slot ~n =
  lock t ~mode:Sim.Lockstat.Write;
  match
    let d = device_of t ~slot in
    Swapdev.free_slots d.dev ~slot:(slot - d.base) ~n
  with
  | () -> unlock t
  | exception e -> unlock_reraise t e

let mark_bad t ~slot =
  let d = device_of t ~slot in
  if d.alive && Swapdev.mark_bad d.dev ~slot:(slot - d.base) then
    span_point t "slot_bad" (fun () -> [ ("slot", string_of_int slot) ])

(* -- paging I/O ------------------------------------------------------ *)

let dead_write_error slot =
  {
    Sim.Fault_plan.failed_op = Sim.Fault_plan.Write;
    severity = Sim.Fault_plan.Permanent;
    bad_slot = Some slot;
  }

let write_device d ~slot ~pages ~n =
  if not d.alive then Error (dead_write_error slot)
  else begin
    let r = Swapdev.write_cluster d.dev ~slot:(slot - d.base) ~pages ~n in
    (match r with Ok () -> d.d_pageouts <- d.d_pageouts + n | Error _ -> ());
    r
  end

let write_cluster t ~slot ~pages ~n =
  lock t ~mode:Sim.Lockstat.Write;
  match
    let d = device_of t ~slot in
    let sp = span_start t ~subsys:d.span_key "write" in
    let r = write_device d ~slot ~pages ~n in
    io_span_finish t sp ~slot ~n r;
    r
  with
  | r ->
      unlock t;
      r
  | exception e -> unlock_reraise t e

(* Reads are still served from a dead device: the failure model is dying
   media that rejects writes — that readability window is exactly what
   lets the pagedaemon drain survivors to healthy tiers. *)
let read_slot t ~slot ~dst =
  lock t ~mode:Sim.Lockstat.Read;
  match
    let d = device_of t ~slot in
    let sp = span_start t ~subsys:d.span_key "read" in
    let r = Swapdev.read_slot d.dev ~slot:(slot - d.base) ~dst in
    (match r with Ok () -> d.d_pageins <- d.d_pageins + 1 | Error _ -> ());
    io_span_finish t sp ~slot ~n:1 r;
    r
  with
  | r ->
      unlock t;
      r
  | exception e -> unlock_reraise t e

type write_outcome =
  | Written
  | Reassigned of int
  | No_space of Sim.Fault_plan.error
  | Failed of Sim.Fault_plan.error

(* The pageout recovery policy, entered at the first failed write of
   the cluster at [base].  Transient errors are retried with exponential
   backoff.  A permanent error blacklists the slot (or hits an
   already-dead device) and the replacement range comes from
   priority-ordered allocation over the healthy devices — when it lands
   on a different device, that is a failover, counted and traced as
   such.  Any later successful write is a recovery; [outcome] is what it
   reports.  Termination: every transient retry spends the attempt
   budget, and every permanent failure blacklists a slot, shrinking the
   usable pool until allocation fails. *)
let rec recover t ~retries ~backoff_us ~assign ~pages ~n ~outcome base attempt
    (e : Sim.Fault_plan.error) =
  match e.severity with
  | Sim.Fault_plan.Transient when attempt < retries ->
      t.stats.Sim.Stats.pageout_retries <-
        t.stats.Sim.Stats.pageout_retries + 1;
      Sim.Simclock.advance t.clock
        (backoff_us *. (2.0 ** float_of_int attempt));
      rewrite t ~retries ~backoff_us ~assign ~pages ~n ~outcome base
        (attempt + 1)
  | Sim.Fault_plan.Transient -> Failed e
  | Sim.Fault_plan.Permanent -> (
      let d = device_of t ~slot:base in
      let bad =
        match e.bad_slot with
        | Some s when s >= base && s < base + n -> s
        | _ -> base
      in
      mark_bad t ~slot:bad;
      match alloc_slots t ~n with
      | None ->
          t.stats.Sim.Stats.swap_full_events <-
            t.stats.Sim.Stats.swap_full_events + 1;
          No_space e
      | Some fresh ->
          let d' = device_of t ~slot:fresh in
          if d'.dev_id <> d.dev_id then begin
            t.stats.Sim.Stats.swap_failovers <-
              t.stats.Sim.Stats.swap_failovers + 1;
            span_point t "failover" (fun () ->
                [
                  ("from", d.spec.tier_name);
                  ("to", d'.spec.tier_name);
                  ("slot", string_of_int fresh);
                ])
          end;
          span_point t "reassign" (fun () -> [ ("slot", string_of_int fresh) ]);
          assign fresh;
          rewrite t ~retries ~backoff_us ~assign ~pages ~n
            ~outcome:(Reassigned fresh) fresh 0)

and rewrite t ~retries ~backoff_us ~assign ~pages ~n ~outcome base attempt =
  match write_cluster t ~slot:base ~pages ~n with
  | Ok () ->
      t.stats.Sim.Stats.pageouts_recovered <-
        t.stats.Sim.Stats.pageouts_recovered + 1;
      outcome
  | Error e ->
      recover t ~retries ~backoff_us ~assign ~pages ~n ~outcome base attempt e

(* The first attempt builds no recovery state: a write that succeeds
   allocates nothing here. *)
let write_resilient t ~retries ~backoff_us ~slot ~assign ~pages ~n =
  lock t ~mode:Sim.Lockstat.Write;
  match
    match write_cluster t ~slot ~pages ~n with
    | Ok () -> Written
    | Error e ->
        recover t ~retries ~backoff_us ~assign ~pages ~n ~outcome:Written slot
          0 e
  with
  | r ->
      unlock t;
      r
  | exception e -> unlock_reraise t e

(* -- device death, swapoff and drain --------------------------------- *)

let shed_device_cache t d =
  let victims =
    Hashtbl.fold
      (fun g key acc ->
        if g > d.base && g <= d.base + d.spec.tier_pages then key :: acc
        else acc)
      t.cache_rev []
  in
  List.iter (cache_drop t) (List.sort compare victims)

let take_offline t ~dead d =
  d.offline <- true;
  if dead then d.alive <- false;
  shed_device_cache t d;
  d.draining <- Swapdev.slots_in_use d.dev > 0

let kill_device t ~name =
  let d = device_exn t name in
  if d.alive then begin
    t.stats.Sim.Stats.swap_devices_dead <-
      t.stats.Sim.Stats.swap_devices_dead + 1;
    span_point t "device_dead" (fun () -> [ ("device", name) ]);
    take_offline t ~dead:true d
  end

let drain_pending t = Array.exists (fun d -> d.draining) t.devices

let set_drain_hook t hook = t.drain_hook <- hook

let run_drain t =
  if drain_pending t then begin
    with_tier_lock t ~mode:Sim.Lockstat.Write @@ fun () ->
    let sp = span_start t ~subsys:"swap" "drain" in
    (match t.drain_hook with Some f -> f () | None -> ());
    Array.iter
      (fun d ->
        if d.draining && Swapdev.slots_in_use d.dev = 0 then begin
          d.draining <- false;
          span_point t "drain_complete" (fun () ->
              [ ("device", d.spec.tier_name) ])
        end)
      t.devices;
    span_finish t sp (fun () -> [])
  end

let swapoff t ~name =
  let d = device_exn t name in
  if not d.offline then begin
    span_point t "swapoff" (fun () -> [ ("device", name) ]);
    take_offline t ~dead:false d
  end;
  run_drain t

let slot_needs_drain t ~slot =
  let d = device_of t ~slot in
  d.offline && Swapdev.is_allocated_slot d.dev ~slot:(slot - d.base)

(* Move one surviving slot's contents to a healthy device: the stored
   value itself travels, so both charged transfers copy nothing.  Returns
   the fresh global slot; the caller rebinds its bookkeeping and frees
   the old slot.  None when the slot has no stored bytes (owner will
   rewrite it), the read failed, or no healthy device has room even
   after shedding cache. *)
let migrate_data t ~slot ~src =
    match Swapdev.read_raw src.dev ~slot:(slot - src.base) with
    | Error _ -> None
    | Ok c -> (
        let pred d = allocatable d && d.dev_id <> src.dev_id in
        match alloc_where t ~n:1 ~pred with
        | 0 -> None
        | g -> (
            let dst = device_of t ~slot:g in
            match Swapdev.write_raw dst.dev ~slot:(g - dst.base) c with
            | Error _ ->
                Swapdev.free_slots dst.dev ~slot:(g - dst.base) ~n:1;
                None
            | Ok () ->
                src.d_migrated_out <- src.d_migrated_out + 1;
                t.stats.Sim.Stats.swap_migrations <-
                  t.stats.Sim.Stats.swap_migrations + 1;
                Some (g, dst)))

let migrate_slot t ~slot =
  with_tier_lock t ~mode:Sim.Lockstat.Write @@ fun () ->
  let src = device_of t ~slot in
  if not (Swapdev.has_data src.dev ~slot:(slot - src.base)) then None
  else begin
    let sp = span_start t ~subsys:"swap" "migrate" in
    let r = migrate_data t ~slot ~src in
    span_finish t sp (fun () ->
        ("from", src.spec.tier_name)
        :: ("slot", string_of_int slot)
        ::
        (match r with
        | Some (g, dst) ->
            [ ("to", dst.spec.tier_name); ("new", string_of_int g) ]
        | None -> [ ("result", "none") ]));
    Option.map fst r
  end

(* -- swapcache ------------------------------------------------------- *)

(* A cache fill only makes sense on a device strictly faster (lower
   priority number) than the slowest healthy tier: with one device — the
   default single-tier boot — caching a clean page there buys nothing
   over re-reading the file, so the cache stays inert and single-device
   behaviour is exactly as before. *)
let fill_target t =
  let worst = ref min_int in
  Array.iter
    (fun d ->
      if allocatable d then worst := max !worst d.spec.tier_priority)
    t.devices;
  let best = ref None in
  Array.iter
    (fun d ->
      if
        allocatable d
        && d.spec.tier_priority < !worst
        && Swapdev.slots_usable d.dev - Swapdev.slots_in_use d.dev
           > cache_reserve
      then
        match !best with
        | Some b when b.spec.tier_priority <= d.spec.tier_priority -> ()
        | _ -> best := Some d)
    t.devices;
  !best

let cache_put t ~vid ~pgno ~(page : Physmem.Page.t) =
  with_tier_lock t ~mode:Sim.Lockstat.Write @@ fun () ->
  let key = (vid, pgno) in
  if not (Hashtbl.mem t.cache key) then
    match fill_target t with
    | None -> ()
    | Some d -> (
        match Swapdev.alloc_slots d.dev ~n:1 with
        | None -> ()
        | Some local -> (
            match
              Swapdev.write_raw d.dev ~slot:local
                (Swapdev.capture page.Physmem.Page.data)
            with
            | Error _ -> Swapdev.free_slots d.dev ~slot:local ~n:1
            | Ok () ->
                let g = d.base + local in
                Hashtbl.replace t.cache key g;
                Hashtbl.replace t.cache_rev g key;
                Queue.push key t.cache_fifo;
                t.stats.Sim.Stats.swap_cache_fills <-
                  t.stats.Sim.Stats.swap_cache_fills + 1))

let cache_contains t ~vid ~pgno = Hashtbl.mem t.cache (vid, pgno)

let cache_lookup t ~vid ~pgno ~(dst : Physmem.Page.t) =
  with_tier_lock t ~mode:Sim.Lockstat.Read @@ fun () ->
  match Hashtbl.find_opt t.cache (vid, pgno) with
  | None -> false
  | Some g -> (
      let d = device_of t ~slot:g in
      match Swapdev.read_raw d.dev ~slot:(g - d.base) with
      | Error _ ->
          (* Unreadable cache entry: drop it and let the caller fall back
             to the vnode — the canonical copy is always the file. *)
          cache_drop t (vid, pgno);
          false
      | Ok c ->
          Swapdev.restore d.dev c ~dst;
          d.d_pageins <- d.d_pageins + 1;
          t.stats.Sim.Stats.swap_cache_hits <-
            t.stats.Sim.Stats.swap_cache_hits + 1;
          true)

let cache_invalidate t ~vid ~pgno =
  with_tier_lock t ~mode:Sim.Lockstat.Write @@ fun () ->
  cache_drop t (vid, pgno)

let cache_invalidate_obj t ~vid =
  with_tier_lock t ~mode:Sim.Lockstat.Write @@ fun () ->
  let victims =
    Hashtbl.fold
      (fun ((v, _) as key) _ acc -> if v = vid then key :: acc else acc)
      t.cache []
  in
  List.iter (cache_drop t) (List.sort compare victims)

(* -- introspection --------------------------------------------------- *)

type tier_info = {
  ti_name : string;
  ti_priority : int;
  ti_capacity : int;
  ti_in_use : int;
  ti_usable : int;
  ti_alive : bool;
  ti_draining : bool;
  ti_pageouts : int;
  ti_pageins : int;
  ti_migrated_out : int;
  ti_cache_slots : int;
}

let tiers t =
  Array.to_list t.devices
  |> List.map (fun d ->
         let cached =
           Hashtbl.fold
             (fun g _ acc ->
               if g > d.base && g <= d.base + d.spec.tier_pages then acc + 1
               else acc)
             t.cache_rev 0
         in
         {
           ti_name = d.spec.tier_name;
           ti_priority = d.spec.tier_priority;
           ti_capacity = d.spec.tier_pages;
           ti_in_use = Swapdev.slots_in_use d.dev;
           ti_usable = Swapdev.slots_usable d.dev;
           ti_alive = d.alive;
           ti_draining = d.draining;
           ti_pageouts = d.d_pageouts;
           ti_pageins = d.d_pageins;
           ti_migrated_out = d.d_migrated_out;
           ti_cache_slots = cached;
         })

let device_alive t ~name = (device_exn t name).alive

(* -- audit support --------------------------------------------------- *)

let cache_claims t =
  Hashtbl.fold
    (fun (vid, pgno) slot acc -> ((vid, pgno), slot) :: acc)
    t.cache []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let slot_on_dead_device t ~slot = not (device_of t ~slot).alive

(* A device that finished draining may never own slots again (nothing
   allocates on an offline device); a violation means the allocator
   handed out slots on retired media. *)
let undrained_violation t =
  Array.to_list t.devices
  |> List.find_opt (fun d ->
         d.offline && (not d.draining) && Swapdev.slots_in_use d.dev > 0)
  |> Option.map (fun d -> d.spec.tier_name)

module Testhook = struct
  (* Seeded corruption for the torture oracle: a swapcache entry whose
     slot was freed underneath it — the cache claims media it no longer
     owns, which the cross-tier audit must attribute to Swap. *)
  let leak_cache_entry t =
    match alloc_slots t ~n:1 with
    | None -> false
    | Some g ->
        let key = (-1, 0) in
        Hashtbl.replace t.cache key g;
        Hashtbl.replace t.cache_rev g key;
        Queue.push key t.cache_fifo;
        free_slots t ~slot:g ~n:1;
        true
end
