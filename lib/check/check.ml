type subsystem =
  | Physmem
  | Swap
  | Map
  | Amap
  | Anon
  | Object
  | Pmap
  | Loan
  | Ledger
  | Lock
  | Smp
  | Ipc

let subsystem_name = function
  | Physmem -> "physmem"
  | Swap -> "swap"
  | Map -> "map"
  | Amap -> "amap"
  | Anon -> "anon"
  | Object -> "object"
  | Pmap -> "pmap"
  | Loan -> "loan"
  | Ledger -> "ledger"
  | Lock -> "lock"
  | Smp -> "smp"
  | Ipc -> "ipc"

type failure = {
  system : string;
  subsys : subsystem;
  invariant : string;
  detail : string;
}

exception Audit_failure of failure

let string_of_failure f =
  Printf.sprintf "[%s] %s/%s: %s" f.system (subsystem_name f.subsys)
    f.invariant f.detail

let () =
  Printexc.register_printer (function
    | Audit_failure f -> Some ("Audit_failure " ^ string_of_failure f)
    | _ -> None)

let fail ~system ~subsys ~invariant detail =
  raise (Audit_failure { system; subsys; invariant; detail })

(* -- physical memory ---------------------------------------------------- *)

let queue_name = function
  | Physmem.Page.Q_none -> "none"
  | Physmem.Page.Q_free -> "free"
  | Physmem.Page.Q_active -> "active"
  | Physmem.Page.Q_inactive -> "inactive"

(* -- provenance ledger --------------------------------------------------- *)

let check_ledger ~system pm =
  let fail invariant detail = fail ~system ~subsys:Ledger ~invariant detail in
  (* Any illegal transition physmem recorded is already a verdict. *)
  (match Physmem.ledger_violations pm with
  | [] -> ()
  | v :: _ ->
      fail "illegal_transition" (Physmem.string_of_violation v));
  (* The ledger state must agree with where the frame is physically
     reachable from.  This runs BEFORE the queue walks of
     [check_physmem]: a frame reachable from a ring its ledger never
     moved it to (the double-insert corruption) is first and foremost a
     lifecycle violation. *)
  let expect ring_name want kind =
    Physmem.walk pm kind (fun (p : Physmem.Page.t) ->
        if p.Physmem.Page.lstate <> want then
          fail "queue_state"
            (Printf.sprintf
               "page %d reachable from %s ring but ledger says %s (step %d)"
               p.Physmem.Page.id ring_name
               (Physmem.Page.lstate_name p.Physmem.Page.lstate)
               p.Physmem.Page.l_steps);
        true)
  in
  expect "free" Physmem.Page.L_free Physmem.Page.Q_free;
  expect "active" Physmem.Page.L_active Physmem.Page.Q_active;
  expect "inactive" Physmem.Page.L_inactive Physmem.Page.Q_inactive;
  (* Off-queue frames must be in an off-queue ledger state. *)
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      if p.Physmem.Page.queue = Physmem.Page.Q_none then
        match p.Physmem.Page.lstate with
        | Physmem.Page.L_detached | Physmem.Page.L_wired
        | Physmem.Page.L_loaned | Physmem.Page.L_limbo ->
            ()
        | s ->
            fail "queue_state"
              (Printf.sprintf "page %d is off-queue but ledger says %s"
                 p.Physmem.Page.id (Physmem.Page.lstate_name s)))
    pm

let check_physmem ~system pm =
  let fail invariant detail = fail ~system ~subsys:Physmem ~invariant detail in
  (* Walk each queue: membership must be exclusive (a frame reached from
     two rings is the double-insert corruption) and must agree with the
     frame's own [queue] tag. *)
  let seen : (int, Physmem.Page.queue) Hashtbl.t = Hashtbl.create 256 in
  let walk kind =
    Physmem.walk pm kind (fun (p : Physmem.Page.t) ->
        (match Hashtbl.find_opt seen p.id with
        | Some prev ->
            fail "queue_exclusive"
              (Printf.sprintf "page %d reached from both %s and %s queues"
                 p.id (queue_name prev) (queue_name kind))
        | None -> Hashtbl.replace seen p.id kind);
        if p.queue <> kind then
          fail "queue_tag"
            (Printf.sprintf "page %d on %s queue but tagged %s" p.id
               (queue_name kind) (queue_name p.queue));
        true)
  in
  walk Physmem.Page.Q_free;
  let nfree = Hashtbl.length seen in
  walk Physmem.Page.Q_active;
  walk Physmem.Page.Q_inactive;
  (* Accounting: free + active + inactive + unqueued = total, with the
     counter caches agreeing with the rings. *)
  if Physmem.free_count pm <> nfree then
    fail "free_count"
      (Printf.sprintf "free_count=%d but free list holds %d"
         (Physmem.free_count pm) nfree);
  let queued = Hashtbl.length seen in
  let unqueued = ref 0 in
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      (match Hashtbl.find_opt seen p.id with
      | Some _ -> ()
      | None ->
          incr unqueued;
          if p.queue <> Physmem.Page.Q_none then
            fail "queue_tag"
              (Printf.sprintf "page %d tagged %s but on no queue" p.id
                 (queue_name p.queue));
          (* An unqueued frame must have a reason to be off the queues. *)
          if
            p.wire_count = 0 && (not p.busy)
            && not (p.owner = Physmem.Page.No_owner && p.loan_count > 0)
          then
            fail "unqueued_unaccounted"
              (Printf.sprintf
                 "page %d is on no queue yet unwired, not busy, not an \
                  owner-dropped loan"
                 p.id));
      if p.wire_count < 0 then
        fail "wire_count" (Printf.sprintf "page %d wire_count < 0" p.id);
      if p.loan_count < 0 then
        raise
          (Audit_failure
             {
               system;
               subsys = Loan;
               invariant = "loan_count";
               detail = Printf.sprintf "page %d loan_count < 0" p.id;
             });
      match p.queue with
      | Physmem.Page.Q_free ->
          if p.owner <> Physmem.Page.No_owner then
            fail "free_owned" (Printf.sprintf "free page %d has an owner" p.id);
          if p.wire_count > 0 then
            fail "free_wired" (Printf.sprintf "free page %d is wired" p.id);
          if p.dirty then
            fail "free_dirty" (Printf.sprintf "free page %d is dirty" p.id)
      | _ -> ())
    pm;
  if queued + !unqueued <> Physmem.total_pages pm then
    fail "page_count"
      (Printf.sprintf "%d queued + %d unqueued <> %d total" queued !unqueued
         (Physmem.total_pages pm))

(* -- swap accounting ---------------------------------------------------- *)

let check_swap ~system swap ~claims =
  let fail invariant detail = fail ~system ~subsys:Swap ~invariant detail in
  (* The swapcache's entries are slot owners too, checked first under
     their own invariant names so cache corruption is distinguishable
     from a VM-structure leak, then merged into the general census (a
     slot charged to both an anon/object and the cache is slot_shared). *)
  let cache_claims =
    List.map
      (fun ((vid, pgno), slot) ->
        let who = Printf.sprintf "swapcache@%d:%d" vid pgno in
        if not (Swap.Swaptier.is_allocated_slot swap ~slot) then
          fail "cache_slot_unallocated"
            (Printf.sprintf "%s holds slot %d which is not allocated" who slot);
        if Swap.Swaptier.slot_on_dead_device swap ~slot then
          fail "cache_dead_device"
            (Printf.sprintf "%s holds slot %d on a dead device" who slot);
        (who, slot))
      (Swap.Swaptier.cache_claims swap)
  in
  (* A device that finished draining owns nothing, forever. *)
  (match Swap.Swaptier.undrained_violation swap with
  | Some name ->
      fail "dead_device_owns"
        (Printf.sprintf "drained device %s owns slots again" name)
  | None -> ());
  let claims = claims @ cache_claims in
  let owners : (int, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (who, slot) ->
      if slot < 1 || slot > Swap.Swaptier.capacity swap then
        fail "slot_range"
          (Printf.sprintf "%s claims out-of-range slot %d" who slot);
      if not (Swap.Swaptier.is_allocated_slot swap ~slot) then
        fail "slot_unallocated"
          (Printf.sprintf "%s claims slot %d which is not allocated" who slot);
      (match Hashtbl.find_opt owners slot with
      | Some other ->
          fail "slot_shared"
            (Printf.sprintf "slot %d claimed by both %s and %s" slot other who)
      | None -> ());
      Hashtbl.replace owners slot who)
    claims;
  let claimed = Hashtbl.length owners in
  let in_use = Swap.Swaptier.slots_in_use swap in
  if claimed <> in_use then begin
    (* Name a leaked slot to make the report actionable. *)
    let leaked = ref None in
    for slot = Swap.Swaptier.capacity swap downto 1 do
      if
        Swap.Swaptier.is_allocated_slot swap ~slot
        && not (Hashtbl.mem owners slot)
      then leaked := Some slot
    done;
    fail "slot_leak"
      (Printf.sprintf "%d slots allocated but only %d reachable%s" in_use
         claimed
         (match !leaked with
         | Some s -> Printf.sprintf " (e.g. slot %d unclaimed)" s
         | None -> ""))
  end

(* -- loan census --------------------------------------------------------- *)

let check_loans ~system pm ~claims =
  let fail invariant detail = fail ~system ~subsys:Loan ~invariant detail in
  let borrows : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let holders : (int, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (who, id) ->
      if id < 0 || id >= Physmem.total_pages pm then
        fail "loan_range"
          (Printf.sprintf "%s claims out-of-range frame %d" who id);
      Hashtbl.replace borrows id
        (1 + Option.value ~default:0 (Hashtbl.find_opt borrows id));
      Hashtbl.replace holders id who)
    claims;
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      if p.queue = Physmem.Page.Q_free && p.loan_count > 0 then
        fail "loan_freed"
          (Printf.sprintf "free page %d still carries loan_count %d" p.id
             p.loan_count);
      let claimed =
        Option.value ~default:0 (Hashtbl.find_opt borrows p.id)
      in
      if claimed <> p.loan_count then
        fail "loan_census"
          (Printf.sprintf "page %d loan_count=%d but %d live borrower(s)%s"
             p.id p.loan_count claimed
             (match Hashtbl.find_opt holders p.id with
             | Some who -> Printf.sprintf " (e.g. %s)" who
             | None -> "")))
    pm

(* -- pv-list symmetry ---------------------------------------------------- *)

let check_pv ~system ctx pm =
  let fail invariant detail = fail ~system ~subsys:Pmap ~invariant detail in
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      let mappings = Pmap.mappings_of_page ctx p in
      if p.queue = Physmem.Page.Q_free && mappings <> [] then
        fail "free_mapped"
          (Printf.sprintf "free page %d still has %d translations" p.id
             (List.length mappings));
      List.iter
        (fun (pmap, vpn) ->
          match Pmap.lookup pmap ~vpn with
          | Some pte when pte.Pmap.page == p -> ()
          | Some _ ->
              fail "pv_stale"
                (Printf.sprintf
                   "pv entry (vpn %d) for page %d maps a different frame" vpn
                   p.id)
          | None ->
              fail "pv_dangling"
                (Printf.sprintf "pv entry (vpn %d) for page %d has no pte" vpn
                   p.id))
        mappings)
    pm

(* -- SMP sharding -------------------------------------------------------- *)

let check_smp ~system pm =
  let fail invariant detail = fail ~system ~subsys:Smp ~invariant detail in
  (* Sharded free accounting: the colored queues plus every per-CPU
     cache must add up to the global free count — a page neither on a
     ring nor in a cache (or in two places) breaks the sum. *)
  let cached =
    List.fold_left
      (fun acc (cw : Physmem.cache_view) -> acc + cw.Physmem.cw_held)
      0 (Physmem.cache_views pm)
  in
  let qfree = Physmem.queue_free_count pm in
  if qfree + cached <> Physmem.free_count pm then
    fail "free_sum"
      (Printf.sprintf "queues %d + caches %d <> free_count %d" qfree cached
         (Physmem.free_count pm));
  (* Color tags: a page on color ring c must have color c. *)
  for c = 0 to Physmem.ncolors - 1 do
    List.iter
      (fun (p : Physmem.Page.t) ->
        if p.Physmem.Page.color <> c then
          fail "color_tag"
            (Printf.sprintf "page %d (color %d) on color-%d free ring" p.id
               p.Physmem.Page.color c);
        if p.Physmem.Page.cached_cpu >= 0 then
          fail "queued_cached"
            (Printf.sprintf "page %d on a free ring yet tagged cached on CPU %d"
               p.id p.Physmem.Page.cached_cpu))
      (Physmem.free_pages_of_color pm c)
  done;
  (* Cached frames: free in every observable way, and exactly as many as
     the caches account for. *)
  let tagged = ref 0 in
  Physmem.iter_pages
    (fun (p : Physmem.Page.t) ->
      if p.Physmem.Page.cached_cpu >= 0 then begin
        incr tagged;
        if p.Physmem.Page.cached_cpu >= Physmem.ncpus pm then
          fail "cache_cpu"
            (Printf.sprintf "page %d cached on CPU %d of %d" p.id
               p.Physmem.Page.cached_cpu (Physmem.ncpus pm));
        if p.Physmem.Page.queue <> Physmem.Page.Q_free then
          fail "cached_state"
            (Printf.sprintf "cached page %d tagged %s, not free" p.id
               (queue_name p.Physmem.Page.queue));
        if p.Physmem.Page.owner <> Physmem.Page.No_owner then
          fail "cached_state"
            (Printf.sprintf "cached page %d has an owner" p.id);
        if
          match p.Physmem.Page.node with
          | Some n -> Sim.Dlist.linked n
          | None -> false
        then
          fail "cached_state"
            (Printf.sprintf "cached page %d still linked on a ring" p.id)
      end)
    pm;
  if !tagged <> cached then
    fail "cache_census"
      (Printf.sprintf "%d frames tagged cached but caches hold %d" !tagged
         cached)

let check_lookup ~system ~okey ~resident =
  (* The lockless fast path must agree with the locked structures: for
     every resident (pgno, page) of an object, an unlocked peek either
     misses (stale slots only miss) or returns that very frame. *)
  List.iter
    (fun (pgno, (page : Physmem.Page.t)) ->
      match Physmem.Lookup.peek okey ~pgno with
      | None -> ()
      | Some hit when hit == page -> ()
      | Some hit ->
          fail ~system ~subsys:Smp ~invariant:"lookup_divergence"
            (Printf.sprintf
               "lockless lookup returns frame %d at pgno %d where the locked \
                path has frame %d"
               hit.Physmem.Page.id pgno page.Physmem.Page.id))
    resident

let check_object_pages ~system ~fail ~owns ~okey pages =
  Hashtbl.iter
    (fun pgno (p : Physmem.Page.t) ->
      if not (owns p) then
        fail "object_page_owner"
          (Printf.sprintf "resident page %d at offset %d owned elsewhere" p.id
             pgno);
      if p.owner_offset <> pgno then
        fail "object_page_offset"
          (Printf.sprintf "page %d thinks offset %d, object says %d" p.id
             p.owner_offset pgno);
      if p.queue = Physmem.Page.Q_free then
        fail "object_page_free"
          (Printf.sprintf "resident page %d is on the free list" p.id))
    pages;
  (* Diff-check the lockless fast path against this locked walk. *)
  check_lookup ~system ~okey
    ~resident:(Hashtbl.fold (fun pgno p acc -> (pgno, p) :: acc) pages [])

(* -- lock-order auditing ------------------------------------------------- *)

let check_lock_order ~system locks =
  match Sim.Lockstat.cycles locks with
  | [] -> ()
  | cyc :: _ ->
      fail ~system ~subsys:Lock ~invariant:"order_cycle"
        (Printf.sprintf "lock-order cycle: %s"
           (String.concat " -> " (cyc @ [ List.hd cyc ])))
