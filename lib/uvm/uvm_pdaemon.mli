(** The UVM pagedaemon (paper §6).

    The mechanism both kernels share (lock, scan span, second-chance
    scan, reclaim, refill, the one-page fixed-slot write) lives in
    {!Vmiface.Pdaemon_core}; this module adds only UVM's clustering
    policy.

    Runs when physical memory is scarce.  Scans the inactive queue with a
    second-chance policy; clean pages with a valid backing copy are
    reclaimed immediately; dirty {e anonymous} pages are collected into a
    batch whose swap locations are {b reassigned} to a freshly-allocated
    contiguous range so the whole batch leaves in one clustered I/O — the
    paper's example: dirty anonymous pages at offsets three, five and
    seven still form a single cluster.  Dirty object pages are pushed
    through their pager's [pgo_put], which clusters by contiguity.

    Because the amap/anon layer needs no maps to find page owners, the
    daemon never takes a map lock.

    With [pageout_cluster = 1] (ablation) anonymous pageout
    degrades to BSD VM's one-I/O-per-page behaviour, through the core's
    fixed-slot write. *)

val install : Uvm_sys.t -> unit
(** Make the daemon's state (the anon batch, [pageout_cluster] slots,
    and its rebinding) and register its pass as the physmem pagedaemon
    callback (done at boot; {!Physmem.run_pagedaemon} runs one).  A pass
    reclaims and cleans until the free target is met or the inactive
    queue is exhausted, then refills the inactive queue from the active
    queue if still short. *)
