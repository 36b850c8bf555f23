(** The common signature both virtual memory systems implement.

    Workload generators ([oslayer]) and the experiment harness
    ([experiments]) are functors over [VM_SYS], so every table and figure of
    the paper runs the *same* workload code against UVM and the BSD VM
    baseline — only the VM system under test changes. *)

open Vmtypes

module type VM_SYS = sig
  val name : string
  (** "UVM" or "BSD VM". *)

  type sys
  (** A booted kernel: machine substrates plus this VM system's global
      state (object cache, pagedaemon configuration, kernel map...). *)

  type vmspace
  (** One virtual address space (a process, or the kernel). *)

  val boot : ?config:Machine.config -> unit -> sys
  val machine : sys -> Machine.t
  val kernel_vmspace : sys -> vmspace

  (* -- address spaces ---------------------------------------------- *)

  val new_vmspace : sys -> vmspace
  val fork : sys -> vmspace -> vmspace
  (** Duplicate an address space honouring each mapping's inheritance
      (the paper's §5 copy-on-write machinery). *)

  val destroy_vmspace : sys -> vmspace -> unit
  (** Tear down all mappings and the pmap (process exit). *)

  val map_entry_count : vmspace -> int
  (** Live map entries — the quantity Table 1 compares. *)

  val resident_pages : vmspace -> int

  val vmspace_usage : sys -> vmspace -> usage
  (** Memory footprint for the overload policy: resident and wired
      translation counts plus the swap slots reachable from this space's
      mappings (shared backing may be counted toward every sharer). *)

  val kernel_map_locked : sys -> bool
  (** True while an operation holds the kernel map's lock.  OOM victim
      teardown (reap, whole-process swapout/swapin) re-enters the kernel
      map to unwire user structures and free wired allocations, so the
      policy must defer — returning the allocation failure to the caller
      — when the failing allocation itself holds that lock. *)

  val deactivate_resident : sys -> vmspace -> int
  (** Whole-process swapout's eviction half: remove every unwired,
      unbusy, unloaned resident page's translations and move the frames
      to the inactive queue so the next pagedaemon pass reclaims them.
      Returns the number of pages deactivated.  Contents are preserved —
      reclaim pages them out through the normal machinery and later
      faults page them back in. *)

  (* -- mapping operations ------------------------------------------- *)

  val mmap :
    sys ->
    vmspace ->
    ?fixed_at:int ->
    npages:int ->
    prot:Pmap.Prot.t ->
    share:share ->
    source ->
    int
  (** Establish a mapping of [npages] pages and return its first virtual
      page number.  Atomic single-step under UVM; the BSD baseline performs
      the historical two-step insert-then-protect when attributes are not
      the defaults.
      @raise Invalid_argument if [fixed_at] overlaps an existing mapping. *)

  val munmap : sys -> vmspace -> vpn:int -> npages:int -> unit
  val mprotect : sys -> vmspace -> vpn:int -> npages:int -> Pmap.Prot.t -> unit
  val minherit : sys -> vmspace -> vpn:int -> npages:int -> inherit_mode -> unit
  val madvise : sys -> vmspace -> vpn:int -> npages:int -> advice -> unit

  val mlock : sys -> vmspace -> vpn:int -> npages:int -> unit
  (** Wire a range on behalf of the user ([mlock(2)]): recorded in the map
      under both systems (the one wiring case where UVM has no other home
      for the state). *)

  val munlock : sys -> vmspace -> vpn:int -> npages:int -> unit

  type wired_buffer
  (** Token for a temporarily wired user buffer (sysctl / physio).  UVM
      keeps the wiring on the "kernel stack" (inside the token) without
      touching the map; BSD VM fragments the map (paper §3.2). *)

  val vslock : sys -> vmspace -> vpn:int -> npages:int -> wired_buffer
  val vsunlock : sys -> vmspace -> wired_buffer -> unit

  (* -- IPC data staging (zero-copy movement, paper §7) ---------------- *)

  type stage
  (** A kernel-held reference to [npages] of a process' data staged for
      an IPC transfer without copying: loaned frames ([uvm_loan]) or a
      kernel-map extraction ([uvm_mexp]).  The BSD baseline has neither
      mechanism, so its staging constructors always decline and the IPC
      layer falls back to copying. *)

  val stage_loan : sys -> vmspace -> vpn:int -> npages:int -> stage option
  (** Loan the pages backing the range to the kernel: frames are wired
      and write-protected in the owner, preserving COW (the owner's
      next write faults into a fresh page, leaving the borrower's view
      intact).  [None] if this VM system cannot loan (BSD VM).
      @raise Vmtypes.Segv if the range is not readable. *)

  val stage_mexp : sys -> vmspace -> vpn:int -> npages:int -> stage option
  (** Stage the range by map-entry passing into the kernel map
      (copy-mode extraction: the sender keeps its view; writes on
      either side resolve by COW).  [None] if unsupported (BSD VM) or
      the range is not fully mapped readable — callers then fall back
      to the copy path so both kernels fail identically on bad
      ranges. *)

  val stage_blit : sys -> stage -> off:int -> bytes -> int -> int -> unit
  (** [stage_blit sys stage ~off dst dpos len] copies [len] bytes of the
      staged data, from byte offset [off], into [dst] at [dpos]: the
      receive side's delivery copy.  A loan stage is read straight out
      of its loaned frames, which are wired, and charges nothing.  A mexp
      stage is read through the kernel mapping, so its pages fault back
      in if they were paged out since staging; a receiver reads such a
      stage before it touches its own buffer.  The BSD baseline never
      stages, so it has no stage to read. *)

  val stage_map : sys -> vmspace -> stage -> int option
  (** Deliver the whole stage by donating its map entries into the
      receiving address space; returns the receiving vpn and consumes
      the stage.  [None] when the stage cannot be delivered by mapping
      (loan stages, BSD VM) — the caller then delivers by copy and
      frees the stage itself. *)

  val stage_free : sys -> stage -> unit
  (** Drop the staged reference: unwire and unloan loaned frames, or
      unmap the kernel-map extraction. *)

  (* -- memory access ------------------------------------------------- *)

  val touch : sys -> vmspace -> vpn:int -> access -> unit
  (** Access one byte on page [vpn], faulting if needed.
      @raise Vmtypes.Segv on unresolvable faults. *)

  val read_bytes : sys -> vmspace -> addr:int -> len:int -> bytes
  (** Byte-addressed read through the mapping (faults as needed); used by
      tests to verify mapping contents. *)

  val write_bytes : sys -> vmspace -> addr:int -> bytes -> unit

  val copyout :
    sys ->
    vmspace ->
    addr:int ->
    len:int ->
    ('src -> bytes -> int -> int -> int -> unit) ->
    'src ->
    unit
  (** [copyout sys vm ~addr ~len fill src] writes [len] bytes at [addr]
      page by page, in address order: each page is faulted in for write
      and marked dirty, and [fill src data off pos n] puts bytes [pos,
      pos + n) of [src] into the frame's [data] at [off].  It is
      {!write_bytes} for a source that is not one buffer; the IPC layer
      receives through it straight into the receiver's frames.
      @raise Vmtypes.Segv on unresolvable faults, with the pages before
      the hole already written. *)

  val access_range : sys -> vmspace -> vpn:int -> npages:int -> access -> unit
  (** Touch every page in the range once. *)

  val msync : sys -> vmspace -> vpn:int -> npages:int -> unit
  (** Flush dirty file-backed pages in the range to their vnode. *)

  (* -- kernel-side wiring cases for Table 1 -------------------------- *)

  val kernel_alloc_wired : sys -> npages:int -> int
  (** Allocate wired kernel memory (user structures, page tables...).
      Returns the kernel vpn.  BSD VM records the wiring in the kernel map
      (fragmenting it); UVM does not. *)

  val kernel_free_wired : sys -> vpn:int -> npages:int -> unit

  val swapout_ustruct : sys -> vpn:int -> npages:int -> unit
  (** Unwire a swapped-out process' user structure.  UVM keeps the wired
      state in the proc structure; BSD VM also updates the kernel map
      (§3.2, second wiring case). *)

  val swapin_ustruct : sys -> vpn:int -> npages:int -> unit

  type ptp
  (** Hardware page-table pages (the i386 wiring case of §3.2).  BSD VM
      allocates them through the kernel map, recording the wiring there as
      well as in the pmap; UVM keeps the state only in the pmap layer, so
      no kernel map entries are consumed. *)

  val pmap_alloc_ptp : sys -> npages:int -> ptp
  val pmap_free_ptp : sys -> ptp -> unit

  (* -- introspection -------------------------------------------------- *)

  val audit : sys -> unit
  (** Walk the whole machine state and verify the cross-layer invariants
      this VM system promises: exclusive page-queue membership with
      matching counts, every allocated swap slot reachable from exactly
      one anon/object, reference counts equal to the referencing
      entries/slots, sorted non-overlapping map entries, and pmap
      translations agreeing with resident pages.  Read-only: charges no
      simulated time and perturbs nothing, so it can run mid-workload.
      @raise Check.Audit_failure naming the violated invariant. *)

  val swap_slots_in_use : sys -> int
  val leaked_pages : sys -> int
  (** Pages of anonymous memory that are allocated but no longer reachable
      from any map — the swap-leak pathology of §5.3.  Always 0 under UVM;
      can be positive under BSD VM's object chains. *)
end
