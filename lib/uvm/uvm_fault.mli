(** The UVM page-fault routine's resolution policy (paper §5.4).

    A single general-purpose handler — unlike SunOS, where each segment
    driver resolves its own faults.  The fault mechanism — span, map
    lock, entry lookup, protection check, wiring bookkeeping and the
    translation install — is shared with BSD VM in
    {!Vmiface.Fault_core}.  What this module keeps is UVM's policy:
    - a two-level lookup, the mapping's amap layer first, then the
      backing-object layer, with no chains to walk and no collapse to
      attempt;
    - a write to a sole-reference anon goes straight into its page, any
      other write copies at anon granularity (a loan break leaving the
      loaned frame its loans' wirings);
    - a wire fault on a writable mapping resolves as a write whenever the
      anon cannot be written in place;
    - fault-ahead: resident pages around the faulting address (default 4
      ahead / 3 behind, tuned by [madvise]) are mapped in read-only,
      cutting future fault counts (paper Table 2). *)

val amap_copy_entry : Uvm_sys.t -> Uvm_map.entry -> unit
(** Clear the entry's needs-copy deferral: allocate an empty amap if the
    entry never faulted, or build a private amap aliasing the shared one's
    anons.  The fault routine calls this lazily; [fork_map] calls it
    eagerly when a needs-copy entry is inherited shared, since sharing
    requires a concrete amap both sides reference. *)

val fault :
  Uvm_map.t ->
  vpn:int ->
  access:Vmiface.Vmtypes.access ->
  wire:bool ->
  (unit, Vmiface.Vmtypes.fault_error) result
(** Resolve a fault at virtual page [vpn].  With [wire:true] the resolved
    page is additionally wired (and copy-on-write is resolved eagerly if
    the mapping is writable, so later writes cannot replace a wired
    page). *)
