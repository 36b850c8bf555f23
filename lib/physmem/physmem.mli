(** Physical memory: the page allocator and the paging queues.

    Simulates the machine's RAM as a fixed array of {!Page.t} frames plus
    the classic BSD free / active / inactive queues.  When the free list
    drops below [freemin] the registered pagedaemon callback is invoked —
    each VM system (UVM, BSD VM) installs its own pageout strategy, which is
    exactly the axis Figure 5 of the paper measures.

    Under simulated SMP (DESIGN.md §16) the queues are sharded
    DragonFly-style: each queue is {!ncolors} rings indexed by page color
    ([frame mod ncolors]), every enqueue carries a global stamp so a
    {!walk} merging the rings in place preserves the single-ring FIFO/LRU
    order, and machines booted with [ncpus > 1] get per-CPU free-page
    caches refilled in batches from (and drained back to) the colored
    queues.  A lockless (generation checked) page-lookup fast path lives
    in {!Lookup}. *)

module Page = Page

exception Out_of_pages
(** Raised when an allocation cannot be satisfied even after running the
    pagedaemon — the simulated equivalent of a memory deadlock. *)

type t

type violation = {
  v_page : int;
  v_from : Page.lstate;
  v_to : Page.lstate;
  v_op : string;
}
(** An illegal ledger transition: the frame, the attempted move and the
    physmem operation that tried it (DESIGN.md §10). *)

val string_of_violation : violation -> string

val create :
  ?page_size:int ->
  ?lifecycle:Sim.Lifecycle.t ->
  ?ncpus:int ->
  npages:int ->
  clock:Sim.Simclock.t ->
  costs:Sim.Cost_model.t ->
  stats:Sim.Stats.t ->
  unit ->
  t
(** [create ~npages ...] boots a machine with [npages] frames of physical
    memory.  [page_size] defaults to 4096 bytes.  [lifecycle] is the
    efficacy accumulator the provenance ledger feeds (a private one is
    created when omitted).  [ncpus] (default 1) sizes the per-CPU
    free-page caches; at 1 the caches are inert and allocation order is
    exactly the unsharded allocator's. *)

val ncolors : int
(** Number of page colors (queue shards): color = frame number mod this. *)

val page_size : t -> int
val total_pages : t -> int
val ncpus : t -> int

val free_count : t -> int
(** All free frames: colored free queues plus per-CPU caches. *)

val queue_free_count : t -> int
(** Free frames on the colored queues only (excludes per-CPU caches);
    never refilled below {!reserve}. *)

val active_count : t -> int
val inactive_count : t -> int

val set_current_cpu : t -> int -> unit
(** Select the CPU whose free cache serves subsequent allocations — the
    SMP scheduler calls this at every context switch.
    @raise Invalid_argument if the index is out of range. *)

val drain_caches : t -> unit
(** Return every cached page to its color's free queue.  Runs implicitly
    when an allocation finds the machine under pressure. *)

type cache_view = {
  cw_cpu : int;
  cw_held : int;  (** pages currently in this CPU's cache *)
  cw_hits : int;  (** allocations served from the cache *)
  cw_misses : int;  (** allocations that missed (refill or global pop) *)
  cw_refills : int;  (** batched refills pulled from the queues *)
  cw_drains : int;  (** drains back to the queues *)
  cw_steals : int;  (** refill pages taken outside the preferred colors *)
}

val cache_views : t -> cache_view list
(** One view per CPU, in CPU order. *)

val free_pages_of_color : t -> int -> Page.t list
(** Snapshot of one colored free queue, FIFO order (tests).
    @raise Invalid_argument on a bad color. *)

val freemin : t -> int
(** Free-page threshold below which the pagedaemon is kicked. *)

val freetarg : t -> int
(** Free-page count the pagedaemon aims for when it runs. *)

val reserve : t -> int
(** Frames held back from ordinary allocation for the paths that create
    free memory: pagedaemon staging, drain migration, swap pagein. *)

val set_pagedaemon : t -> (unit -> unit) -> unit
(** Install the VM system's pageout routine.  It is called by {!alloc} when
    free pages are scarce and must try to move clean/cleaned pages to the
    free list. *)

val run_pagedaemon : t -> unit
(** Run one pass of the installed pageout routine now, unless a pass is
    already running. *)

val set_lockstat : t -> Sim.Lockstat.t option -> unit
(** Register the page-queue locks with the machine's lock observatory:
    queue surgery (unlink/enqueue/refill/drain) is then recorded as
    write-mode holds of the ["pagequeue"] class — one lock instance per
    color ring, so surgery on different colors never contends. *)

val set_oom_hook : t -> (unit -> bool) option -> unit
(** Install (or clear) the last-resort overload policy.  When paging cannot
    satisfy an allocation, the hook is invoked; returning [true] means it
    freed memory (swapped a process out, reaped a victim) and the
    allocation should run the daemon and retry.  The first [false] — or no
    hook — turns the failure into {!Out_of_pages}. *)

val alloc :
  t -> ?zero:bool -> ?privileged:bool -> owner:Page.tag -> offset:int ->
  unit -> Page.t
(** Allocate a page frame for [owner] at page-index [offset] within it.
    If [zero] (default false) the page data is zero-filled and the zeroing
    cost is charged.  If [privileged] (default false) the allocation may
    dig into the kernel {!reserve} — for pagedaemon staging and swap
    pagein only, so reclaim always makes progress.  The returned page is
    on no queue ([Q_none]), not busy, clean, and unwired.
    @raise Out_of_pages if memory cannot be reclaimed. *)

val free_page : t -> Page.t -> unit
(** Return a frame to the free list, clearing ownership.  A loaned page
    ([loan_count > 0]) only drops ownership; the frame is actually freed
    when the last loan ends (see UVM loanout semantics, paper §7).
    @raise Invalid_argument if the page is wired or already free. *)

val activate : t -> Page.t -> unit
(** Put a page on the active queue (unlinking it from wherever it is). *)

val deactivate : t -> Page.t -> unit
(** Put a page on the inactive queue and clear its reference bit. *)

val dequeue : t -> Page.t -> unit
(** Remove a page from any paging queue (used when wiring or starting I/O). *)

val walk : t -> Page.queue -> (Page.t -> bool) -> unit
(** [walk t q f] visits the pages on queue [q] in enqueue order (LRU
    first, the pagedaemon's scan order) until [f] returns [false].  The
    color rings are merged in place by stamp; nothing is copied.  [f] may
    requeue or free the page it is given; pages enqueued after the walk
    began are not visited.  The free walk ends with the pages held by
    per-CPU caches, so a full walk of [Q_free] visits [free_count t]
    frames.  Walks see every node of every ring, so a frame linked onto
    two rings is reached from both.
    @raise Invalid_argument if [q] is [Q_none], or if a page the walk has
    not reached yet leaves its queue while the walk runs. *)

val iter_pages : (Page.t -> unit) -> t -> unit
(** Visit every physical frame, allocated or not, in frame-number order —
    the auditor's walk over the whole of simulated RAM. *)

val wire : t -> Page.t -> unit
(** Increment the wire count; a newly-wired page leaves the paging queues. *)

val unwire : t -> Page.t -> unit
(** Decrement the wire count; when it reaches zero the page goes active. *)

val release_loan : t -> Page.t -> unit
(** End one loan on a page.  If the owner already dropped the page and no
    loans remain, the frame finally returns to the free list (paper §7's
    loanout lifetime rule). *)

val copy_data : t -> src:Page.t -> dst:Page.t -> unit
(** Copy page contents, charging the page-copy cost. *)

val zero_data : t -> Page.t -> unit
(** Zero page contents, charging the page-zero cost. *)

(** {1 Lockless page lookup}

    A direct-mapped (object, offset) → page cache modelling DragonFly's
    heuristic page hash: reads are unlocked, guarded by a generation
    counter (seqlock protocol) plus identity validation against the live
    page, so a stale slot can only miss — never return a wrong page.
    Publishers are the object layers' [insert_page]/[remove_page]; the
    fault paths probe it before taking the object lock. *)
module Lookup : sig
  type okey
  (** A lookup identity for one memory object (UVM object, BSD VM
      object): allocate once at object creation. *)

  val okey : t -> okey

  val publish : okey -> pgno:int -> Page.t -> unit
  (** Publish [page] as the resident page at [pgno]; captures the page's
      current owner tag for later validation.  Call with the page's
      owner fields already set. *)

  val revoke : okey -> pgno:int -> unit
  (** Clear the slot if it still belongs to this (object, offset). *)

  val find : okey -> pgno:int -> Page.t option
  (** The fast path: an unlocked probe charging one [hash_lookup].
      [Some page] is a validated hit (never busy, never free) and counts
      toward [lookup_fast_hits]; [None] means the caller must take the
      locked path and counts toward [lookup_locked]. *)

  val peek : okey -> pgno:int -> Page.t option
  (** {!find} without costs or counters — the auditor's diff-check
      against the locked structures. *)
end

(** {1 Provenance ledger}

    Every queue/wire/loan operation above already steps each frame's
    lifecycle record through a legal-transition state machine; illegal
    moves are recorded (and counted in {!Sim.Lifecycle}) for the
    auditor.  The notes below let the VM layers stamp the events physmem
    cannot see itself: fault-in kind, fault-ahead premaps and their
    resolution, pageout-cluster membership and swap-slot reassignment. *)

val lifecycle : t -> Sim.Lifecycle.t

val ledger_violations : t -> violation list
(** Illegal transitions seen so far (bounded; oldest first). *)

val note_fault_in : t -> Page.t -> fill:Sim.Lifecycle.fill -> unit
(** A fault resolved to this frame: records the fill kind and the
    inter-fault interval, and resolves a pending fault-ahead premap as
    wasted (the premap did not prevent this fault). *)

val note_fault_ahead_mapped : t -> Page.t -> madv:Sim.Lifecycle.madv -> unit
(** Fault-ahead premapped this resident frame under the given advice.
    No-op if a premap is already pending (first premap wins). *)

val note_demand_fault : t -> Page.t -> unit
(** A demand fault resolved to this frame (whether or not it was a fresh
    fill): any pending premap is resolved as wasted. *)

val note_soft_use :
  stats:Sim.Stats.t -> lifecycle:Sim.Lifecycle.t -> Page.t -> unit
(** The frame was touched through an existing translation: a pending
    fault-ahead premap is resolved as used (a fault was avoided).
    Takes the sinks explicitly so pmap can call it without a [t]. *)

val note_unmapped :
  stats:Sim.Stats.t -> lifecycle:Sim.Lifecycle.t -> Page.t -> unit
(** A translation to the frame was removed; a pending premap is wasted. *)

val note_cluster : t -> pages:Page.t array -> n:int -> runs:int -> unit
(** [pages.(0 .. n-1)] went out in one pageout cluster laid out in
    [runs] contiguous swap-slot runs (1 = fully contiguous, the paper's
    §6 ideal; [n] = one seek per page, the BSD baseline). *)

val note_reassign : t -> Page.t -> dist:int -> unit
(** The frame's swap slot moved [dist] slots away during clustering. *)

(** Deliberate state corruption for exercising the invariant auditor.
    Never called by the VM layers. *)
module Testhook : sig
  val double_insert : t -> Page.t -> unit
  (** Link [page] onto a second paging queue without removing it from its
      current one. *)
end
