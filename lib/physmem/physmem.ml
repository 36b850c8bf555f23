module Page = Page

exception Out_of_pages

type violation = {
  v_page : int;
  v_from : Page.lstate;
  v_to : Page.lstate;
  v_op : string;
}

let string_of_violation v =
  Printf.sprintf "page#%d %s->%s on %s" v.v_page
    (Page.lstate_name v.v_from) (Page.lstate_name v.v_to) v.v_op

(* DragonFly shards its page queues by page color (pfn mod NCOLORS) so
   CPUs working disjoint colors never touch the same free-list cache
   line.  16 colors keeps the per-queue rings long enough to stay
   FIFO-meaningful on small simulated machines. *)
let ncolors = 16

(* A per-CPU free-page cache: small per-color stacks refilled in batches
   from the global colored queues and drained back under pressure.  A
   CPU prefers the colors congruent to its index (CPU-localized color
   selection); serving from outside that partition is a "steal". *)
type cpu_cache = {
  cc_cpu : int;
  cc_pages : Page.t list array;  (** per-color LIFO stacks *)
  mutable cc_count : int;
  mutable cc_pref : int;  (** rotating cursor into the preferred colors *)
  mutable cc_hits : int;
  mutable cc_misses : int;
  mutable cc_refills : int;
  mutable cc_drains : int;
  mutable cc_steals : int;
}

(* One slot of the lockless page-lookup table (DragonFly's heuristic
   page hash): a direct-mapped cache of (object, offset) -> page with a
   generation counter modelling the seqlock protocol a real SMP kernel
   would need.  Entries self-invalidate: the owner tag captured at
   publish time is compared by physical identity, and every insert
   allocates a fresh tag block, so a freed/moved/collapsed page never
   validates against a stale slot. *)
type lentry = {
  mutable e_oid : int;  (** owning object's lookup serial, -1 empty *)
  mutable e_pgno : int;
  mutable e_page : Page.t option;
  mutable e_owner : Page.tag;  (** owner tag captured at publish *)
  mutable e_gen : int;  (** even = stable, odd = publisher mid-update *)
}

let lookup_slots = 4096

(* An in-place queue walk in progress: the queue it walks, the last
   stamp issued when it began (pages stamped later are not visited) and
   each color ring's next unvisited node. *)
type walk = {
  w_queue : Page.queue;
  w_last : int;
  w_next : Page.t Sim.Dlist.node option array;
}

type t = {
  page_size : int;
  total_pages : int;
  ncpus : int;
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  lifecycle : Sim.Lifecycle.t;
  free : Page.t Sim.Dlist.t array;  (** colored free queues *)
  active : Page.t Sim.Dlist.t array;
  inactive : Page.t Sim.Dlist.t array;
  caches : cpu_cache array;
  mutable cur_cpu : int;  (** CPU the scheduler is currently running *)
  mutable seq : int;  (** global enqueue stamp: FIFO across colors *)
  pages : Page.t array;  (** every frame, indexed by frame number *)
  mutable free_count : int;  (** free frames: colored queues + CPU caches *)
  mutable qfree : int;  (** free frames on the colored queues only *)
  freemin : int;
  freetarg : int;
  reserve : int;  (** frames only privileged (daemon/drain) allocs may take *)
  mutable pagedaemon : (unit -> unit) option;
  mutable daemon_running : bool;
  mutable oom_hook : (unit -> bool) option;
      (** last-resort reclaim: swap a process out or reap a victim; returns
          true if it freed anything worth retrying the allocation for *)
  mutable violations : violation list;  (** first few illegal transitions *)
  births : Float.Array.t;
      (** by frame number: the sim time of its current allocation (flat,
          so setting one boxes nothing, unlike a page's float field) *)
  last_fill : Sim.Simclock.stamp;  (** time of the last fault-in, -1 if none *)
  mutable lockq : (Sim.Lockstat.t * Sim.Lockstat.lock array) option;
      (** the page-queue locks — one instance per color ring, so queue
          surgery on different colors never contends — registered when
          the machine wires its lock observatory in *)
  lookup : lentry array;
  mutable oid_serial : int;
  mutable walks : walk list;  (** walks in progress, innermost first *)
}

(* ---- Provenance ledger: the legal-transition state machine ---------- *)

(* Which lifecycle moves a healthy kernel can make.  The teeth are the
   [L_free] row (any use of a free frame except allocation is a bug), the
   wired row (a wired frame may not be freed or deactivated) and the limbo
   row (an owner-dropped loaned frame can only drain to the free list). *)
let legal ~from ~to_ =
  match (from, to_) with
  | Page.L_free, Page.L_detached -> true
  | Page.L_free, _ -> false
  | Page.L_wired, (Page.L_free | Page.L_inactive) -> false
  | Page.L_wired, _ -> true
  (* Loaned-and-wired frames obey the wired rules: the borrower must end
     the loan (draining through unwire/release_loan) before the frame can
     reach the free list or cool off. *)
  | Page.L_loaned, (Page.L_free | Page.L_inactive) -> false
  | Page.L_loaned, _ -> true
  | Page.L_limbo, (Page.L_free | Page.L_limbo | Page.L_wired | Page.L_loaned)
    -> true
  | Page.L_limbo, _ -> false
  | (Page.L_detached | Page.L_active | Page.L_inactive), _ -> true

let lstep t (page : Page.t) ~op to_ =
  let from = page.Page.lstate in
  if not (legal ~from ~to_) then begin
    Sim.Lifecycle.note_illegal t.lifecycle;
    if List.length t.violations < 8 then
      t.violations <-
        t.violations
        @ [ { v_page = page.Page.id; v_from = from; v_to = to_; v_op = op } ]
  end;
  page.Page.lstate <- to_;
  page.Page.l_steps <- page.Page.l_steps + 1

(* Resolve a pending fault-ahead premap.  [used]: the mapping was touched
   before eviction, i.e. a fault was avoided; otherwise the neighbour was
   unmapped, evicted, freed or demand-faulted first and the premap was in
   vain.  Takes stats/lifecycle rather than [t] so Pmap (which sees pages
   but not the physmem handle) can resolve soft touches too. *)
let fa_resolve ~stats ~lifecycle (page : Page.t) ~used =
  if page.Page.l_fa >= 0 then begin
    let m = Sim.Lifecycle.madv_of_index page.Page.l_fa in
    page.Page.l_fa <- -1;
    if used then begin
      stats.Sim.Stats.fault_ahead_used <- stats.Sim.Stats.fault_ahead_used + 1;
      Sim.Lifecycle.note_fa_used lifecycle m
    end
    else begin
      stats.Sim.Stats.fault_ahead_wasted <-
        stats.Sim.Stats.fault_ahead_wasted + 1;
      Sim.Lifecycle.note_fa_wasted lifecycle m
    end
  end

(* Link [page] at the tail of ring [q] with a fresh stamp, reusing the
   page's node: a requeue allocates nothing. *)
let link_tail t (page : Page.t) q =
  t.seq <- t.seq + 1;
  page.Page.q_seq <- t.seq;
  match page.Page.node with
  | Some node -> Sim.Dlist.append q node
  | None -> page.Page.node <- Some (Sim.Dlist.push_tail q page)

let create ?(page_size = 4096) ?lifecycle ?(ncpus = 1) ~npages ~clock ~costs
    ~stats () =
  if npages < 16 then invalid_arg "Physmem.create: need at least 16 pages";
  if ncpus < 1 then invalid_arg "Physmem.create: need at least one CPU";
  let pages =
    Array.init npages (fun i ->
        {
          Page.id = i;
          color = i mod ncolors;
          data = Bytes.create page_size;
          dirty = false;
          busy = false;
          wire_count = 0;
          loan_count = 0;
          owner = Page.No_owner;
          owner_offset = 0;
          queue = Page.Q_free;
          node = None;
          q_seq = 0;
          cached_cpu = -1;
          referenced = false;
          lstate = Page.L_free;
          l_fa = -1;
          l_steps = 0;
          l_clusters = 0;
          l_reassigns = 0;
        })
  in
  let lifecycle =
    match lifecycle with Some l -> l | None -> Sim.Lifecycle.create ()
  in
  let t =
    {
      page_size;
      total_pages = npages;
      ncpus;
      clock;
      costs;
      stats;
      lifecycle;
      free = Array.init ncolors (fun _ -> Sim.Dlist.create ());
      active = Array.init ncolors (fun _ -> Sim.Dlist.create ());
      inactive = Array.init ncolors (fun _ -> Sim.Dlist.create ());
      caches =
        Array.init ncpus (fun cpu ->
            {
              cc_cpu = cpu;
              cc_pages = Array.make ncolors [];
              cc_count = 0;
              cc_pref = 0;
              cc_hits = 0;
              cc_misses = 0;
              cc_refills = 0;
              cc_drains = 0;
              cc_steals = 0;
            });
      cur_cpu = 0;
      seq = 0;
      pages;
      free_count = 0;
      qfree = 0;
      freemin = max 8 (npages / 32);
      freetarg = max 16 (npages / 16);
      reserve = max 4 (npages / 64);
      pagedaemon = None;
      daemon_running = false;
      oom_hook = None;
      violations = [];
      births = Float.Array.make npages 0.0;
      last_fill = { Sim.Simclock.at = -1.0 };
      lockq = None;
      lookup =
        Array.init lookup_slots (fun _ ->
            {
              e_oid = -1;
              e_pgno = -1;
              e_page = None;
              e_owner = Page.No_owner;
              e_gen = 0;
            });
      oid_serial = 0;
      walks = [];
    }
  in
  (* Stamp the boot free list in frame order so a 1-CPU machine allocates
     frames 0, 1, 2... exactly as the unsharded allocator did. *)
  Array.iter
    (fun page ->
      link_tail t page t.free.(page.Page.color);
      t.free_count <- t.free_count + 1;
      t.qfree <- t.qfree + 1)
    t.pages;
  t

let page_size t = t.page_size
let total_pages t = t.total_pages
let ncpus t = t.ncpus
let free_count t = t.free_count
let queue_free_count t = t.qfree

let sum_rings arr =
  Array.fold_left (fun n dl -> n + Sim.Dlist.length dl) 0 arr

let active_count t = sum_rings t.active
let inactive_count t = sum_rings t.inactive
let freemin t = t.freemin
let freetarg t = t.freetarg
let reserve t = t.reserve
let set_pagedaemon t f = t.pagedaemon <- Some f
let set_oom_hook t f = t.oom_hook <- f

let set_current_cpu t cpu =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg "Physmem.set_current_cpu: no such CPU";
  t.cur_cpu <- cpu

(* The per-CPU cache's fill target: enough pages that refills are
   batched, few enough that caches cannot strand a meaningful fraction
   of a small machine's RAM. *)
let cache_target t =
  if t.ncpus <= 1 then 0
  else min 16 (max 4 (t.total_pages / (32 * t.ncpus)))

let set_lockstat t reg =
  t.lockq <-
    Option.map
      (fun ls ->
        ( ls,
          Array.init ncolors (fun c ->
              Sim.Lockstat.register ls ~cls:"pagequeue"
                (Printf.sprintf "pagequeue.c%02d" c)) ))
      reg

let rings_of t = function
  | Page.Q_free -> t.free
  | Page.Q_active -> t.active
  | Page.Q_inactive -> t.inactive
  | Page.Q_none -> invalid_arg "Physmem.walk: Q_none is not a queue"

let cursor_seq = function
  | Some node -> (Sim.Dlist.value node).Page.q_seq
  | None -> max_int

(* Called as [page] leaves its ring, with the walks in progress.  A page
   that a walk has not reached yet would silently drop out of it, so the
   walk fails loudly instead: only the page a visitor was handed may
   move.  Written without a closure: it runs on every queue unlink. *)
let rec guard_walks (page : Page.t) = function
  | [] -> ()
  | w :: outer ->
      if
        w.w_queue = page.Page.queue
        && page.Page.q_seq <= w.w_last
        && page.Page.q_seq >= cursor_seq w.w_next.(page.Page.color)
      then invalid_arg "Physmem.walk: a page ahead of the walk left its queue";
      guard_walks page outer

(* The queue-surgery leaves are the critical sections a real SMP kernel
   would guard with the page-queue lock, so they are what the observatory
   times: straight-line, exception-free, write-mode holds — of the
   page's color ring's own lock instance, so surgery on different colors
   never contends.  [enqueue] calls [unlink] on a page of the same color
   — the registry counts that as a recursive acquire of the same
   instance, one recorded hold. *)
let queue_lock t ~color =
  match t.lockq with
  | Some (ls, lk) ->
      Sim.Lockstat.acquire ls lk.(color) ~mode:Sim.Lockstat.Write
  | None -> ()

let queue_unlock t ~color =
  match t.lockq with
  | Some (ls, lk) -> Sim.Lockstat.release ls lk.(color)
  | None -> ()

(* Unlink [page] from whatever queue it is on.  Pages held by a per-CPU
   cache are never unlinked: they are off every ring (their node is
   unlinked) and only leave the cache through the allocator or a
   drain. *)
let unlink t (page : Page.t) =
  queue_lock t ~color:page.Page.color;
  (match page.queue with
  | Page.Q_none -> ()
  | kind -> (
      match page.node with
      | Some node when Sim.Dlist.linked node ->
          guard_walks page t.walks;
          Sim.Dlist.remove (rings_of t kind).(page.Page.color) node;
          if kind = Page.Q_free then begin
            t.free_count <- t.free_count - 1;
            t.qfree <- t.qfree - 1
          end;
          page.queue <- Page.Q_none
      | Some _ | None -> assert false));
  queue_unlock t ~color:page.Page.color

let enqueue t (page : Page.t) kind =
  queue_lock t ~color:page.Page.color;
  unlink t page;
  (match kind with
  | Page.Q_none -> ()
  | _ ->
      link_tail t page (rings_of t kind).(page.Page.color);
      page.Page.queue <- kind;
      if kind = Page.Q_free then begin
        t.free_count <- t.free_count + 1;
        t.qfree <- t.qfree + 1
      end);
  queue_unlock t ~color:page.Page.color

(* ---- Per-CPU free caches -------------------------------------------- *)

(* Colors in the order this CPU's cache serves and refills them: its
   preferred partition first (rotating so the partition wears evenly),
   then everyone else's. *)
let color_order t cache =
  let np = min t.ncpus ncolors in
  let base = cache.cc_cpu mod np in
  let npref = ncolors / np in
  let pref =
    List.init npref (fun i -> base + (np * ((cache.cc_pref + i) mod npref)))
  in
  let rest =
    List.filter (fun c -> c mod np <> base) (List.init ncolors Fun.id)
  in
  pref @ rest

let cache_pop t cache =
  if cache.cc_count = 0 then None
  else begin
    let rec go = function
      | [] -> None
      | c :: rest -> (
          match cache.cc_pages.(c) with
          | [] -> go rest
          | page :: tl ->
              cache.cc_pages.(c) <- tl;
              cache.cc_count <- cache.cc_count - 1;
              t.free_count <- t.free_count - 1;
              page.Page.cached_cpu <- -1;
              page.Page.queue <- Page.Q_none;
              Some page)
    in
    go (color_order t cache)
  end

(* Pull a batch of pages from the colored queues into [cache], preferred
   colors first, never digging into the reserve (those frames stay on
   the global queues where privileged allocations can reach them).  One
   batched refill is one page-queue lock hold per color ring it drew
   from — the whole point of the per-CPU cache, and preferred colors
   make even that hold one no other CPU usually wants. *)
let refill_cache t cache =
  let target = cache_target t in
  let np = min t.ncpus ncolors in
  let base = cache.cc_cpu mod np in
  let moved = ref 0 in
  if target > cache.cc_count && t.qfree > t.reserve then begin
    List.iter
      (fun c ->
        if
          cache.cc_count < target && t.qfree > t.reserve
          && not (Sim.Dlist.is_empty t.free.(c))
        then begin
          queue_lock t ~color:c;
          let continue = ref true in
          while
            !continue && cache.cc_count < target && t.qfree > t.reserve
          do
            match Sim.Dlist.head_node t.free.(c) with
            | Some node ->
                let page = Sim.Dlist.value node in
                Sim.Dlist.remove t.free.(c) node;
                guard_walks page t.walks;
                page.Page.cached_cpu <- cache.cc_cpu;
                cache.cc_pages.(c) <- page :: cache.cc_pages.(c);
                cache.cc_count <- cache.cc_count + 1;
                t.qfree <- t.qfree - 1;
                incr moved;
                if c mod np <> base then begin
                  cache.cc_steals <- cache.cc_steals + 1;
                  t.stats.Sim.Stats.cache_steals <-
                    t.stats.Sim.Stats.cache_steals + 1
                end
            | None -> continue := false
          done;
          queue_unlock t ~color:c
        end)
      (color_order t cache);
    cache.cc_pref <- (cache.cc_pref + 1) mod max 1 (ncolors / np)
  end;
  if !moved > 0 then begin
    cache.cc_refills <- cache.cc_refills + 1;
    t.stats.Sim.Stats.cache_refills <- t.stats.Sim.Stats.cache_refills + 1
  end;
  !moved > 0

(* Return every cached page to its color's free queue — under memory
   pressure the global queues (and the pagedaemon scanning them) must
   see all free frames. *)
let drain_caches t =
  Array.iter
    (fun cache ->
      if cache.cc_count > 0 then begin
        for c = 0 to ncolors - 1 do
          if cache.cc_pages.(c) <> [] then begin
            queue_lock t ~color:c;
            List.iter
              (fun (page : Page.t) ->
                page.Page.cached_cpu <- -1;
                link_tail t page t.free.(c);
                t.qfree <- t.qfree + 1)
              (List.rev cache.cc_pages.(c));
            cache.cc_pages.(c) <- [];
            queue_unlock t ~color:c
          end
        done;
        cache.cc_count <- 0;
        cache.cc_drains <- cache.cc_drains + 1;
        t.stats.Sim.Stats.cache_drains <- t.stats.Sim.Stats.cache_drains + 1
      end)
    t.caches

type cache_view = {
  cw_cpu : int;
  cw_held : int;
  cw_hits : int;
  cw_misses : int;
  cw_refills : int;
  cw_drains : int;
  cw_steals : int;
}

let cache_views t =
  Array.to_list
    (Array.map
       (fun c ->
         {
           cw_cpu = c.cc_cpu;
           cw_held = c.cc_count;
           cw_hits = c.cc_hits;
           cw_misses = c.cc_misses;
           cw_refills = c.cc_refills;
           cw_drains = c.cc_drains;
           cw_steals = c.cc_steals;
         })
       t.caches)

let run_pagedaemon t =
  match t.pagedaemon with
  | Some daemon when not t.daemon_running ->
      t.daemon_running <- true;
      Fun.protect ~finally:(fun () -> t.daemon_running <- false) daemon
  | Some _ | None -> ()

(* No frame to hand out, raised by [pop_queue_min] and [grab] rather
   than an option, which every allocation would build. *)
exception No_frame

(* Pop the globally-oldest free frame: the head with the smallest
   enqueue stamp across the color rings.  On one CPU this is exactly the
   unsharded allocator's FIFO. *)
let pop_queue_min t =
  let best = ref (-1) in
  let best_seq = ref max_int in
  for c = 0 to ncolors - 1 do
    match Sim.Dlist.head_node t.free.(c) with
    | Some node when (Sim.Dlist.value node).Page.q_seq < !best_seq ->
        best := c;
        best_seq := (Sim.Dlist.value node).Page.q_seq
    | _ -> ()
  done;
  if !best < 0 then raise No_frame;
  let c = !best in
  queue_lock t ~color:c;
  match Sim.Dlist.head_node t.free.(c) with
  | Some node ->
      let page = Sim.Dlist.value node in
      Sim.Dlist.remove t.free.(c) node;
      guard_walks page t.walks;
      t.free_count <- t.free_count - 1;
      t.qfree <- t.qfree - 1;
      page.Page.queue <- Page.Q_none;
      queue_unlock t ~color:c;
      page
  | None ->
      queue_unlock t ~color:c;
      raise No_frame

(* The bottom [reserve] frames of the free queues belong to the paths
   that make more memory: pagedaemon staging, drain migration, swap
   pagein.  Ordinary allocations stop above the reserve so those paths
   can always make forward progress at (nominally) zero free pages;
   cache refills stop there too, so the reserve is always on the global
   queues where privileged allocations can reach it. *)
let grab t ~privileged =
  if privileged then begin
    match pop_queue_min t with
    | page ->
        if t.free_count < t.reserve then
          t.stats.Sim.Stats.reserve_grabs <- t.stats.Sim.Stats.reserve_grabs + 1;
        page
    | exception No_frame ->
        if t.free_count > 0 then begin
          (* Queues empty but caches hold frames: reclaim them. *)
          drain_caches t;
          pop_queue_min t
        end
        else raise No_frame
  end
  else if t.free_count <= t.reserve then raise No_frame
  else if t.ncpus > 1 then begin
    let cache = t.caches.(t.cur_cpu) in
    match cache_pop t cache with
    | Some page ->
        cache.cc_hits <- cache.cc_hits + 1;
        t.stats.Sim.Stats.cache_alloc_hits <-
          t.stats.Sim.Stats.cache_alloc_hits + 1;
        page
    | None ->
        cache.cc_misses <- cache.cc_misses + 1;
        t.stats.Sim.Stats.cache_alloc_misses <-
          t.stats.Sim.Stats.cache_alloc_misses + 1;
        if refill_cache t cache then begin
          match cache_pop t cache with
          | Some page -> page
          | None -> pop_queue_min t
        end
        else if t.qfree > t.reserve then pop_queue_min t
        else raise No_frame
  end
  else pop_queue_min t

let alloc t ?(zero = false) ?(privileged = false) ~owner ~offset () =
  if t.free_count <= t.freemin then begin
    (* Pressure: the pagedaemon (and the reserve logic below) must see
       every free frame, so the per-CPU caches drain first. *)
    if t.free_count > t.qfree then drain_caches t;
    run_pagedaemon t
  end;
  let page =
    match grab t ~privileged with
    | page -> page
    | exception No_frame ->
        (* VM_WAIT: the failing allocation waits on the pagedaemon and
           retries.  Several rounds, because the two-queue second-chance
           scan needs them — one pass clears reference bits on the active
           queue, the next deactivates, the one after reclaims — and a
           single pass may legitimately free nothing while reclaimable
           pages still exist.  Frames stranded in other CPUs' caches come
           back to the queues first: above freemin the pagedaemon sees
           no shortage, so nothing else would return them. *)
        let rec wait_rounds n =
          if t.free_count > t.qfree then drain_caches t;
          run_pagedaemon t;
          match grab t ~privileged with
          | page -> Some page
          | exception No_frame -> if n > 1 then wait_rounds (n - 1) else None
        in
        (match wait_rounds 4 with
        | Some page -> page
        | None ->
            (* Paging alone cannot meet demand: hand the decision to the
               overload policy (process swapout, then OOM kill).  Each
               round that claims progress earns one more daemon pass and
               retry; the first round that does not ends in Out_of_pages. *)
            let rec last_resort () =
              match t.oom_hook with
              | Some hook when hook () -> (
                  run_pagedaemon t;
                  match grab t ~privileged with
                  | page -> page
                  | exception No_frame -> last_resort ())
              | Some _ | None -> raise Out_of_pages
            in
            last_resort ())
  in
  page.Page.owner <- owner;
  page.Page.owner_offset <- offset;
  page.Page.dirty <- false;
  page.Page.busy <- false;
  page.Page.referenced <- false;
  assert (page.Page.wire_count = 0);
  assert (page.Page.loan_count = 0);
  page.Page.l_steps <- 0;
  lstep t page ~op:"alloc" Page.L_detached;
  Float.Array.set t.births page.Page.id (Sim.Simclock.now t.clock);
  page.Page.l_fa <- -1;
  page.Page.l_clusters <- 0;
  page.Page.l_reassigns <- 0;
  if zero then begin
    Bytes.fill page.Page.data 0 t.page_size '\000';
    Sim.Simclock.advance t.clock t.costs.Sim.Cost_model.page_zero;
    t.stats.Sim.Stats.pages_zeroed <- t.stats.Sim.Stats.pages_zeroed + 1
  end;
  page

(* Shared bookkeeping for a frame leaving service: resolve any dangling
   fault-ahead premap as wasted and log the frame's residency time. *)
let retire t (page : Page.t) =
  fa_resolve ~stats:t.stats ~lifecycle:t.lifecycle page ~used:false;
  Sim.Lifecycle.note_residency t.lifecycle
    (Sim.Simclock.now t.clock -. Float.Array.get t.births page.Page.id)

let free_page t (page : Page.t) =
  if page.queue = Page.Q_free then
    invalid_arg "Physmem.free_page: page already free";
  if page.loan_count > 0 then begin
    (* The owner dropped the page while it is loaned out (possibly wired by
       the borrower): the borrower keeps using the frame; it is finally
       freed when the last loan is ended (uvm_loan handles that). *)
    page.owner <- Page.No_owner;
    page.owner_offset <- 0;
    unlink t page;
    lstep t page ~op:"free_loaned" Page.L_limbo
  end
  else if page.wire_count > 0 then
    invalid_arg "Physmem.free_page: page is wired"
  else begin
    page.owner <- Page.No_owner;
    page.owner_offset <- 0;
    page.dirty <- false;
    page.busy <- false;
    page.referenced <- false;
    retire t page;
    lstep t page ~op:"free" Page.L_free;
    enqueue t page Page.Q_free
  end

let activate t (page : Page.t) =
  if page.wire_count > 0 then begin
    lstep t page ~op:"activate_wired" Page.L_wired;
    unlink t page
  end
  else begin
    lstep t page ~op:"activate" Page.L_active;
    enqueue t page Page.Q_active
  end

let deactivate t (page : Page.t) =
  page.referenced <- false;
  (* Cooling off without ever being soft-touched resolves a pending
     fault-ahead premap as wasted. *)
  fa_resolve ~stats:t.stats ~lifecycle:t.lifecycle page ~used:false;
  if page.wire_count > 0 then begin
    lstep t page ~op:"deactivate_wired" Page.L_wired;
    unlink t page
  end
  else begin
    lstep t page ~op:"deactivate" Page.L_inactive;
    enqueue t page Page.Q_inactive
  end

let dequeue t page =
  lstep t page ~op:"dequeue" Page.L_detached;
  unlink t page

(* Queue scans merge the color rings in place: each ring is already in
   stamp order (every enqueue is a [push_tail] with a fresh stamp), so
   repeatedly taking the smallest-stamped ring cursor visits the pages in
   exactly the order one global ring would hold them, without copying or
   sorting the queue.  The successor is read before [f] runs, so [f] may
   requeue or free the page it was handed; pages stamped after the walk
   began (requeued ones included) are not visited. *)
let walk t kind f =
  let rings = rings_of t kind in
  let w =
    { w_queue = kind; w_last = t.seq; w_next = Array.map Sim.Dlist.head_node rings }
  in
  let rec next () =
    let best = ref (-1) in
    let best_seq = ref max_int in
    for c = 0 to ncolors - 1 do
      let s = cursor_seq w.w_next.(c) in
      if s < !best_seq then begin
        best := c;
        best_seq := s
      end
    done;
    !best_seq > w.w_last
    ||
    match w.w_next.(!best) with
    | Some node ->
        w.w_next.(!best) <- Sim.Dlist.next_node node;
        f (Sim.Dlist.value node) && next ()
    | None -> assert false
  in
  let outer = t.walks in
  t.walks <- w :: outer;
  let completed = Fun.protect ~finally:(fun () -> t.walks <- outer) next in
  (* Cached pages are free pages too: the free walk ends with them, so it
     reaches exactly [free_count] frames. *)
  if completed && kind = Page.Q_free then
    ignore
      (Array.for_all
         (fun cache -> Array.for_all (List.for_all f) cache.cc_pages)
         t.caches
        : bool)

let free_pages_of_color t color =
  if color < 0 || color >= ncolors then
    invalid_arg "Physmem.free_pages_of_color: no such color";
  Sim.Dlist.to_list t.free.(color)

let iter_pages f t = Array.iter f t.pages

let wire t (page : Page.t) =
  page.wire_count <- page.wire_count + 1;
  if page.wire_count = 1 then begin
    (* A frame wired on behalf of a loan (uvm_loan wiring the borrower's
       reference) is ledgered separately from plain wirings. *)
    lstep t page ~op:"wire"
      (if page.loan_count > 0 then Page.L_loaned else Page.L_wired);
    unlink t page
  end

let unwire t (page : Page.t) =
  if page.wire_count <= 0 then invalid_arg "Physmem.unwire: page not wired";
  page.wire_count <- page.wire_count - 1;
  if page.wire_count = 0 then
    if page.owner = Page.No_owner && page.loan_count > 0 then
      (* Owner dropped the frame while it was loaned out: it stays in
         limbo (off-queue) until the last loan drains it to the free
         list. *)
      lstep t page ~op:"unwire_limbo" Page.L_limbo
    else begin
      lstep t page ~op:"unwire" Page.L_active;
      enqueue t page Page.Q_active
    end

let release_loan t (page : Page.t) =
  if page.loan_count <= 0 then
    invalid_arg "Physmem.release_loan: page not loaned";
  page.loan_count <- page.loan_count - 1;
  if page.loan_count = 0 && page.owner = Page.No_owner && page.wire_count = 0
  then begin
    page.dirty <- false;
    page.busy <- false;
    page.referenced <- false;
    retire t page;
    lstep t page ~op:"loan_free" Page.L_free;
    enqueue t page Page.Q_free
  end

(* ---- Lockless page lookup ------------------------------------------- *)

module Lookup = struct
  type pm = t

  type okey = { k_pm : pm; k_oid : int }

  let okey t =
    t.oid_serial <- t.oid_serial + 1;
    { k_pm = t; k_oid = t.oid_serial }

  let slot t ~oid ~pgno =
    let h = (oid * 0x9E3779B1) lxor (pgno * 0x85EBCA77) in
    (h lxor (h lsr 13)) land (Array.length t.lookup - 1)

  let publish k ~pgno (page : Page.t) =
    let t = k.k_pm in
    let e = t.lookup.(slot t ~oid:k.k_oid ~pgno) in
    e.e_gen <- e.e_gen + 1;
    e.e_oid <- k.k_oid;
    e.e_pgno <- pgno;
    e.e_page <- Some page;
    e.e_owner <- page.Page.owner;
    e.e_gen <- e.e_gen + 1

  let revoke k ~pgno =
    let t = k.k_pm in
    let e = t.lookup.(slot t ~oid:k.k_oid ~pgno) in
    if e.e_oid = k.k_oid && e.e_pgno = pgno then begin
      e.e_gen <- e.e_gen + 1;
      e.e_oid <- -1;
      e.e_pgno <- -1;
      e.e_page <- None;
      e.e_owner <- Page.No_owner;
      e.e_gen <- e.e_gen + 1
    end

  (* The unlocked read: snapshot the generation, read the slot, check the
     generation again.  A torn read (odd or changed generation) or any
     identity mismatch falls back to the locked path.  Owner identity is
     physical: every insert tags the page with a freshly-allocated owner
     block, so a slot published for a page that has since been freed,
     moved or collapsed into another object can never validate. *)
  let probe k ~pgno =
    let t = k.k_pm in
    let e = t.lookup.(slot t ~oid:k.k_oid ~pgno) in
    let g1 = e.e_gen in
    let hit =
      if e.e_oid = k.k_oid && e.e_pgno = pgno then
        match e.e_page with
        | Some page
          when page.Page.owner == e.e_owner
               && page.Page.owner_offset = pgno
               && (not page.Page.busy)
               && page.Page.queue <> Page.Q_free
               && page.Page.cached_cpu < 0 ->
            Some page
        | _ -> None
      else None
    in
    if g1 = e.e_gen && g1 land 1 = 0 then hit else None

  let find k ~pgno =
    let t = k.k_pm in
    Sim.Simclock.advance t.clock t.costs.Sim.Cost_model.hash_lookup;
    match probe k ~pgno with
    | Some page ->
        t.stats.Sim.Stats.lookup_fast_hits <-
          t.stats.Sim.Stats.lookup_fast_hits + 1;
        Some page
    | None ->
        t.stats.Sim.Stats.lookup_locked <-
          t.stats.Sim.Stats.lookup_locked + 1;
        None

  let peek k ~pgno = probe k ~pgno
end

(* ---- Ledger notes from the VM layers -------------------------------- *)

let lifecycle t = t.lifecycle
let ledger_violations t = t.violations

let note_fault_in t (page : Page.t) ~fill =
  let now = Sim.Simclock.now t.clock in
  let last = t.last_fill in
  if last.at >= 0.0 then
    Sim.Lifecycle.note_interfault t.lifecycle (now -. last.at);
  last.at <- now;
  Sim.Lifecycle.note_fill t.lifecycle fill;
  (* A demand fault resolving to a premapped frame means the premap did
     not prevent the fault: in vain. *)
  fa_resolve ~stats:t.stats ~lifecycle:t.lifecycle page ~used:false

let note_fault_ahead_mapped t (page : Page.t) ~madv =
  if page.Page.l_fa < 0 then begin
    page.Page.l_fa <- Sim.Lifecycle.madv_index madv;
    Sim.Lifecycle.note_fa_mapped t.lifecycle madv
  end

let note_soft_use ~stats ~lifecycle page =
  fa_resolve ~stats ~lifecycle page ~used:true

(* A demand fault landed on this frame: whatever premap it carried did not
   prevent the fault. *)
let note_demand_fault t page =
  fa_resolve ~stats:t.stats ~lifecycle:t.lifecycle page ~used:false

let note_unmapped ~stats ~lifecycle page =
  fa_resolve ~stats ~lifecycle page ~used:false

let note_cluster t ~pages ~n ~runs =
  Sim.Lifecycle.note_cluster t.lifecycle ~size:n ~runs;
  for i = 0 to n - 1 do
    let p : Page.t = pages.(i) in
    p.Page.l_clusters <- p.Page.l_clusters + 1
  done

let note_reassign t (page : Page.t) ~dist =
  page.Page.l_reassigns <- page.Page.l_reassigns + 1;
  Sim.Lifecycle.note_reassign t.lifecycle ~dist

let copy_data t ~(src : Page.t) ~(dst : Page.t) =
  Bytes.blit src.data 0 dst.data 0 t.page_size;
  Sim.Simclock.advance t.clock t.costs.Sim.Cost_model.page_copy;
  t.stats.Sim.Stats.pages_copied <- t.stats.Sim.Stats.pages_copied + 1

let zero_data t (page : Page.t) =
  Bytes.fill page.data 0 t.page_size '\000';
  Sim.Simclock.advance t.clock t.costs.Sim.Cost_model.page_zero;
  t.stats.Sim.Stats.pages_zeroed <- t.stats.Sim.Stats.pages_zeroed + 1

module Testhook = struct
  (* Deliberately link [page] onto a second paging queue without unlinking
     it from its current one, leaving the frame reachable from two rings at
     once — the classic queue-corruption bug the auditor must catch.  Only
     for tests; never called by the VM layers. *)
  let double_insert t (page : Page.t) =
    let second =
      match page.Page.queue with
      | Page.Q_inactive -> t.active.(page.Page.color)
      | _ -> t.inactive.(page.Page.color)
    in
    ignore (Sim.Dlist.push_tail second page)
end
