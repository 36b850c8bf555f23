(** Memory maps (paper §3).

    A map is a sorted doubly-linked list of entries, each recording one
    mapping: an address range, the backing object and/or amap, and the
    mapping attributes.  Addresses are in page units (virtual page
    numbers).  That mechanism — entries, lookup, clipping, attribute
    changes, wiring records, the map lock and invariants — is shared with
    BSD VM and lives in {!Vmiface.Map_core}; this module instantiates it
    with UVM's two layers and adds only UVM's policy:
    - {!insert}: the single-step [uvm_map] that establishes a mapping with
      all its attributes under one lock acquisition — no two-step
      insert-then-protect, no read-write security window;
    - {!unmap}: the two-phase unmap — entries are unlinked under the map
      lock, but object/amap references are dropped only after the lock is
      released (reference drops can trigger long I/O);
    - entry merging for object-less kernel allocations.
    Wiring that does not fragment entries (paper §3.2) is the facade's
    choice of when to call {!mark_wired} at all. *)

include
  Vmiface.Map_core.S
    with type sys = Uvm_sys.t
     and type obj = Uvm_object.t
     and type amap = Uvm_amap.t

val insert :
  t ->
  spage:int ->
  npages:int ->
  obj:Uvm_object.t option ->
  objoff:int ->
  prot:Pmap.Prot.t ->
  maxprot:Pmap.Prot.t ->
  inh:Vmiface.Vmtypes.inherit_mode ->
  advice:Vmiface.Vmtypes.advice ->
  cow:bool ->
  needs_copy:bool ->
  merge:bool ->
  entry
(** The single-step mapping function.  The caller passes a reference to
    [obj] (already counted); on a successful merge the reference would be
    redundant, but merging is only done for object-less entries.
    @raise Invalid_argument if the range is not free or out of bounds. *)

val unmap : t -> spage:int -> npages:int -> unit
(** The two-phase unmap: unlink + pmap-remove under the lock, reference
    drops after unlock. *)

val destroy : t -> unit
(** Unmap everything (process exit). *)
