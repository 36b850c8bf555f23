(** The memory-map mechanism both kernels share (paper §3).

    UVM kept BSD's map data structure: a sorted doubly-linked list of
    entries, each recording one mapping's address range, backing and
    attributes, with a lookup hint and a map lock.  Everything here is
    that shared mechanism.  What the paper changes is policy, and each
    kernel's map module adds only that on top of {!Make}: UVM's merging
    single-step insert and two-phase unmap ([Uvm_map]), BSD VM's
    two-step insert, relocking attribute changes and single-phase unmap
    ([Vm_map]).  Addresses are in page units (virtual page numbers). *)

(** What a kernel supplies to instantiate the core. *)
module type KERNEL = sig
  type sys
  (** The kernel's global state, kept in every map for its policy code. *)

  type obj
  (** The object layer an entry maps. *)

  type amap
  (** The anonymous layer ([Map_core.none] for a kernel without one). *)

  val name : string
  (** Module name prefixed to the core's [Invalid_argument] messages. *)

  val mach : sys -> Machine.t

  val obj_reference : obj -> unit
  (** Take the extra object reference a clipped-off tail entry holds. *)

  val amap_splitref : amap -> unit
  (** The amap counterpart of {!obj_reference}. *)

  val amap_nslots : amap -> int

  val relookup : bool
  (** Whether an attribute change re-finds its range after taking the
      lock (BSD VM's second mapping step, paper §3.1). *)
end

(** The anonymous layer of a kernel that has none: no [amap] value
    exists, so such an entry's amap slot is always [None]. *)
type none = |

module type S = sig
  type sys
  type obj
  type amap

  type entry = {
    mutable spage : int;  (** first virtual page *)
    mutable epage : int;  (** one past the last virtual page *)
    mutable obj : obj option;  (** backing object layer *)
    mutable objoff : int;  (** object page offset corresponding to [spage] *)
    mutable amap : amap option;  (** anonymous layer *)
    mutable amapoff : int;  (** amap slot corresponding to [spage] *)
    mutable prot : Pmap.Prot.t;
    mutable maxprot : Pmap.Prot.t;
    mutable inh : Vmtypes.inherit_mode;
    mutable advice : Vmtypes.advice;
    mutable wired : int;  (** user wire count (mlock) *)
    mutable cow : bool;  (** copy-on-write (private) mapping *)
    mutable needs_copy : bool;  (** private copy deferred to the first write *)
    mutable prev : entry option;
    mutable next : entry option;
  }

  type t = {
    sys : sys;
    mach : Machine.t;
    pmap : Pmap.t;
    lo : int;
    hi : int;
    kernel : bool;
    mutable first : entry option;
    mutable nentries : int;
    mutable hint : entry option;
    mutable locked : bool;
    mutable lockh : Sim.Lockstat.lock option;
        (** lock-observatory handle, registered on the first {!lock}
            while the registry is active *)
  }

  val create : sys -> pmap:Pmap.t -> lo:int -> hi:int -> kernel:bool -> t
  val costs : t -> Sim.Cost_model.t

  val charge : t -> float -> unit
  (** Advance the map's machine clock. *)

  val lock : t -> unit
  (** Acquire the map lock (charges lock cost).  The lock observatory,
      when active, is the one recorder of its hold time. *)

  val unlock : t -> unit

  val is_locked : t -> bool
  (** True while some operation holds the map lock.  The OOM policy checks
      this before tearing a victim down: teardown re-enters the kernel
      map, so it must defer when the failing allocation already holds it. *)

  val entry_npages : entry -> int
  val entry_count : t -> int
  val iter_entries : (entry -> unit) -> t -> unit
  val entries : t -> entry list

  val alloc_entry :
    t ->
    spage:int ->
    epage:int ->
    obj:obj option ->
    objoff:int ->
    amap:amap option ->
    amapoff:int ->
    prot:Pmap.Prot.t ->
    maxprot:Pmap.Prot.t ->
    inh:Vmtypes.inherit_mode ->
    advice:Vmtypes.advice ->
    wired:int ->
    cow:bool ->
    needs_copy:bool ->
    entry
  (** Allocate an unlinked entry: the one place that counts, ledgers and
      charges a map-entry allocation. *)

  val copy_entry : t -> entry -> entry
  (** A fresh unwired entry with [e]'s range, backing and attributes (fork
      and map-entry passing).  Takes no backing references. *)

  val free_entry : t -> entry -> unit

  val link_after : t -> entry option -> entry -> unit
  (** Link an entry after another (or at the head when [None]). *)

  val unlink : t -> entry -> unit
  (** Remove an entry from the map's list without dropping its references
      (donate-style map-entry passing; unmap uses this internally). *)

  val search : t -> from:entry option -> vpn:int -> entry option * entry option
  (** Walk from an entry (or the head), charging per entry examined, to
      the entry containing [vpn]; also returns the last entry starting at
      or before [vpn], the insertion point for a new entry there. *)

  val lookup : t -> vpn:int -> entry option
  (** Find the entry mapping [vpn], charging per examined entry; maintains
      a lookup hint like the real implementation. *)

  val range_free : t -> spage:int -> npages:int -> bool

  val find_space : t -> npages:int -> int
  (** First-fit free virtual range of [npages] pages.
      @raise Not_found if the address space is exhausted. *)

  val insert_entry_raw : t -> entry -> unit
  (** Link a fully-built entry (map-entry passing / fork import).  The
      range must be free. *)

  val clip_range : t -> spage:int -> epage:int -> unit
  (** Split entries so that no entry straddles [spage] or [epage]. *)

  val entries_in_range : t -> spage:int -> epage:int -> entry list

  val iter_obj_ranges :
    t -> spage:int -> epage:int -> (obj -> lo:int -> hi:int -> unit) -> unit
  (** For each entry overlapping pages [spage] to [epage - 1] that maps an
      object, call [f] with the object and the object pages [lo] to
      [hi - 1] the overlap covers (msync). *)

  val unlink_range : t -> spage:int -> epage:int -> entry list
  (** The common first phase of unmap, with the lock held: clip, unlink
      every entry in the range and remove its translations.  Returns the
      unlinked entries, whose references the caller still owns. *)

  val protect : t -> spage:int -> npages:int -> prot:Pmap.Prot.t -> unit
  (** Change protection; restricts existing translations, never widens
      them (widening happens through faults). *)

  val set_inherit :
    t -> spage:int -> npages:int -> Vmtypes.inherit_mode -> unit

  val set_advice : t -> spage:int -> npages:int -> Vmtypes.advice -> unit

  val mark_wired : t -> spage:int -> npages:int -> unit
  (** Record a user wiring (mlock) in the map: clips and increments entry
      wire counts.  Faulting the pages in and wiring the frames is done by
      the caller, since it needs the fault routine. *)

  val mark_unwired : t -> spage:int -> npages:int -> unit

  val destroy_with : (t -> spage:int -> npages:int -> unit) -> t -> unit
  (** [destroy_with unmap t] unmaps everything with the kernel's [unmap]
      (process exit). *)

  val check_invariants : t -> (unit, string) result
  (** Sorted, non-overlapping, in-bounds entries; amap ranges within their
      amaps; entry count consistent. *)

  val audit_structure : t -> system:string -> vid:int -> unit
  (** {!check_invariants} as an audit: a violation raises
      {!Check.Audit_failure} ([map_structure]) naming vmspace [vid]. *)

  val audit_pmap :
    t ->
    system:string ->
    vid:int ->
    (fail:(string -> string -> unit) -> entry -> int -> Pmap.pte -> unit) ->
    unit
  (** The pmap audit's walk over the map's live translations: each must
      lie inside an entry ([pmap_unmapped]) whose protection covers it
      ([pmap_prot]); [resolve ~fail e d pte] then checks that page [d] of
      [e] resolves to the mapped frame by the kernel's own lookup path.
      [fail invariant detail] raises {!Check.Audit_failure} naming
      vmspace [vid] and the page.  Unlike {!lookup}, the walk charges
      nothing and leaves the hint alone. *)
end

module Make (K : KERNEL) :
  S with type sys = K.sys and type obj = K.obj and type amap = K.amap =
struct
  type sys = K.sys
  type obj = K.obj
  type amap = K.amap

  type entry = {
    mutable spage : int;
    mutable epage : int;
    mutable obj : obj option;
    mutable objoff : int;
    mutable amap : amap option;
    mutable amapoff : int;
    mutable prot : Pmap.Prot.t;
    mutable maxprot : Pmap.Prot.t;
    mutable inh : Vmtypes.inherit_mode;
    mutable advice : Vmtypes.advice;
    mutable wired : int;
    mutable cow : bool;
    mutable needs_copy : bool;
    mutable prev : entry option;
    mutable next : entry option;
  }

  type t = {
    sys : sys;
    mach : Machine.t;
    pmap : Pmap.t;
    lo : int;
    hi : int;
    kernel : bool;
    mutable first : entry option;
    mutable nentries : int;
    mutable hint : entry option;
    mutable locked : bool;
    mutable lockh : Sim.Lockstat.lock option;
  }

  let create sys ~pmap ~lo ~hi ~kernel =
    if lo < 0 || hi <= lo then invalid_arg (K.name ^ ".create: bad bounds");
    {
      sys;
      mach = K.mach sys;
      pmap;
      lo;
      hi;
      kernel;
      first = None;
      nentries = 0;
      hint = None;
      locked = false;
      lockh = None;
    }

  let stats t = t.mach.Machine.stats
  let costs t = t.mach.Machine.costs
  let[@inline] charge t us = Machine.charge t.mach us

  (* The map's entry in the lock observatory, registered on the first
     lock while the registry is active (an inactive one records nothing).
     The registry renders the lock:map span; the cost charge and the
     Stats counters stay here because they are always on. *)
  let lock_handle t =
    match t.lockh with
    | Some l -> l
    | None ->
        let l =
          Sim.Lockstat.register t.mach.Machine.locks ~cls:"map"
            (if t.kernel then "kernel_map" else "user_map")
        in
        t.lockh <- Some l;
        l

  let lock t =
    assert (not t.locked);
    charge t (costs t).Sim.Cost_model.lock_acquire;
    (stats t).Sim.Stats.lock_acquisitions <-
      (stats t).Sim.Stats.lock_acquisitions + 1;
    let ls = t.mach.Machine.locks in
    if Sim.Lockstat.active ls then
      Sim.Lockstat.acquire ls (lock_handle t) ~mode:Sim.Lockstat.Write;
    t.locked <- true

  let is_locked t = t.locked

  let unlock t =
    if not t.locked then invalid_arg (K.name ^ ".unlock: not locked");
    t.locked <- false;
    (* A handle that was never registered was never acquired. *)
    match t.lockh with
    | Some l -> Sim.Lockstat.release t.mach.Machine.locks l
    | None -> ()

  let entry_npages e = e.epage - e.spage
  let entry_count t = t.nentries

  let iter_entries f t =
    let rec go = function
      | None -> ()
      | Some e ->
          let nxt = e.next in
          f e;
          go nxt
    in
    go t.first

  let entries t =
    let acc = ref [] in
    iter_entries (fun e -> acc := e :: !acc) t;
    List.rev !acc

  let alloc_entry t ~spage ~epage ~obj ~objoff ~amap ~amapoff ~prot ~maxprot
      ~inh ~advice ~wired ~cow ~needs_copy =
    (stats t).Sim.Stats.map_entries_allocated <-
      (stats t).Sim.Stats.map_entries_allocated + 1;
    Sim.Lifecycle.note_entry_alloc t.mach.Machine.lifecycle;
    charge t (costs t).Sim.Cost_model.struct_alloc;
    {
      spage;
      epage;
      obj;
      objoff;
      amap;
      amapoff;
      prot;
      maxprot;
      inh;
      advice;
      wired;
      cow;
      needs_copy;
      prev = None;
      next = None;
    }

  let copy_entry t e =
    alloc_entry t ~spage:e.spage ~epage:e.epage ~obj:e.obj ~objoff:e.objoff
      ~amap:e.amap ~amapoff:e.amapoff ~prot:e.prot ~maxprot:e.maxprot
      ~inh:e.inh ~advice:e.advice ~wired:0 ~cow:e.cow ~needs_copy:e.needs_copy

  let free_entry t (_e : entry) =
    (stats t).Sim.Stats.map_entries_freed <-
      (stats t).Sim.Stats.map_entries_freed + 1;
    Sim.Lifecycle.note_entry_free t.mach.Machine.lifecycle

  let link_after t prev e =
    (match prev with
    | None ->
        e.next <- t.first;
        e.prev <- None;
        (match t.first with Some f -> f.prev <- Some e | None -> ());
        t.first <- Some e
    | Some p ->
        e.next <- p.next;
        e.prev <- Some p;
        (match p.next with Some n -> n.prev <- Some e | None -> ());
        p.next <- Some e);
    t.nentries <- t.nentries + 1

  let unlink t e =
    (match e.prev with
    | Some p -> p.next <- e.next
    | None -> t.first <- e.next);
    (match e.next with Some n -> n.prev <- e.prev | None -> ());
    e.prev <- None;
    e.next <- None;
    (match t.hint with Some h when h == e -> t.hint <- None | _ -> ());
    t.nentries <- t.nentries - 1

  (* Both walks hand back the links they arrived by ([Some e] boxes the
     list already holds), so they build no option or closure. *)
  let rec search_from t ~vpn prev = function
    | None -> (prev, None)
    | Some e as link ->
        charge t (costs t).Sim.Cost_model.map_entry_search;
        if vpn < e.spage then (prev, None)
        else if vpn < e.epage then (prev, link)
        else search_from t ~vpn link e.next

  let search t ~from ~vpn = search_from t ~vpn None from

  (* [search] without the insertion point. *)
  let rec find_from t ~vpn = function
    | None -> None
    | Some e as link ->
        charge t (costs t).Sim.Cost_model.map_entry_search;
        if vpn < e.spage then None
        else if vpn < e.epage then link
        else find_from t ~vpn e.next

  (* Start from the hint when it does not overshoot [vpn], else from the
     head.  The hint is always a linked entry: unlink clears it. *)
  let lookup t ~vpn =
    let start =
      match t.hint with Some h when h.spage <= vpn -> t.hint | _ -> t.first
    in
    let found = find_from t ~vpn start in
    if found != None then t.hint <- found;
    found

  let range_free t ~spage ~npages =
    let epage = spage + npages in
    spage >= t.lo && epage <= t.hi
    && not
         (List.exists
            (fun e -> e.spage < epage && spage < e.epage)
            (entries t))

  let find_space t ~npages =
    let rec go pos = function
      | None -> if pos + npages <= t.hi then pos else raise Not_found
      | Some e ->
          if e.spage - pos >= npages then pos else go (max pos e.epage) e.next
    in
    go t.lo t.first

  let insert_entry_raw t e =
    lock t;
    if not (range_free t ~spage:e.spage ~npages:(entry_npages e)) then begin
      unlock t;
      invalid_arg (K.name ^ ".insert_entry_raw: range not free")
    end;
    charge t (costs t).Sim.Cost_model.map_insert;
    let prev, _ = search t ~from:t.first ~vpn:e.spage in
    link_after t prev e;
    unlock t

  (* Split [e] at [vpn] (strictly inside it), producing the tail entry,
     which holds its own reference on each backing layer. *)
  let clip t e vpn =
    assert (vpn > e.spage && vpn < e.epage);
    let delta = vpn - e.spage in
    let tail =
      alloc_entry t ~spage:vpn ~epage:e.epage ~obj:e.obj
        ~objoff:(e.objoff + delta) ~amap:e.amap ~amapoff:(e.amapoff + delta)
        ~prot:e.prot ~maxprot:e.maxprot ~inh:e.inh ~advice:e.advice
        ~wired:e.wired ~cow:e.cow ~needs_copy:e.needs_copy
    in
    e.epage <- vpn;
    Option.iter K.obj_reference e.obj;
    Option.iter K.amap_splitref e.amap;
    link_after t (Some e) tail

  let clip_range t ~spage ~epage =
    iter_entries
      (fun e -> if e.spage < spage && spage < e.epage then clip t e spage)
      t;
    iter_entries
      (fun e -> if e.spage < epage && epage < e.epage then clip t e epage)
      t

  let entries_in_range t ~spage ~epage =
    List.filter (fun e -> e.spage >= spage && e.epage <= epage) (entries t)

  let iter_obj_ranges t ~spage ~epage f =
    List.iter
      (fun e ->
        match e.obj with
        | Some o ->
            f o
              ~lo:(e.objoff + (max spage e.spage - e.spage))
              ~hi:(e.objoff + (min epage e.epage - e.spage))
        | None -> ())
      (List.filter (fun e -> e.spage < epage && spage < e.epage) (entries t))

  let unlink_range t ~spage ~epage =
    clip_range t ~spage ~epage;
    let doomed = entries_in_range t ~spage ~epage in
    List.iter
      (fun e ->
        charge t (costs t).Sim.Cost_model.map_remove;
        unlink t e)
      doomed;
    Pmap.remove_range t.pmap ~lo:spage ~hi:epage;
    doomed

  let apply_in_range t ~spage ~npages f =
    let epage = spage + npages in
    lock t;
    if K.relookup then ignore (lookup t ~vpn:spage);
    clip_range t ~spage ~epage;
    List.iter f (entries_in_range t ~spage ~epage);
    unlock t

  let protect t ~spage ~npages ~prot =
    apply_in_range t ~spage ~npages (fun e ->
        if not (Pmap.Prot.subsumes e.maxprot prot) then
          invalid_arg (K.name ^ ".protect: exceeds maxprot");
        e.prot <- prot;
        Pmap.restrict_range t.pmap ~lo:e.spage ~hi:e.epage ~prot)

  let set_inherit t ~spage ~npages inh =
    apply_in_range t ~spage ~npages (fun e -> e.inh <- inh)

  let set_advice t ~spage ~npages advice =
    apply_in_range t ~spage ~npages (fun e -> e.advice <- advice)

  let mark_wired t ~spage ~npages =
    apply_in_range t ~spage ~npages (fun e -> e.wired <- e.wired + 1)

  let mark_unwired t ~spage ~npages =
    apply_in_range t ~spage ~npages (fun e ->
        if e.wired <= 0 then invalid_arg (K.name ^ ".mark_unwired: not wired");
        e.wired <- e.wired - 1)

  let destroy_with unmap t =
    if t.nentries > 0 then unmap t ~spage:t.lo ~npages:(t.hi - t.lo)

  let check_invariants t =
    let rec go count pos = function
      | None ->
          if count <> t.nentries then
            Error (Printf.sprintf "nentries=%d but %d linked" t.nentries count)
          else Ok ()
      | Some e ->
          if e.spage < pos then Error "entries overlap or unsorted"
          else if e.spage >= e.epage then Error "empty entry"
          else if e.spage < t.lo || e.epage > t.hi then
            Error "entry out of bounds"
          else begin
            match e.amap with
            | Some am
              when e.amapoff < 0
                   || e.amapoff + entry_npages e > K.amap_nslots am ->
                Error "amap range exceeds amap"
            | _ -> go (count + 1) e.epage e.next
          end
    in
    go 0 t.lo t.first

  let audit_structure t ~system ~vid =
    match check_invariants t with
    | Ok () -> ()
    | Error msg ->
        Check.fail ~system ~subsys:Check.Map ~invariant:"map_structure"
          (Printf.sprintf "vmspace %d: %s" vid msg)

  let audit_pmap t ~system ~vid resolve =
    let entries = entries t in
    List.iter
      (fun (vpn, (pte : Pmap.pte)) ->
        let fail invariant detail =
          Check.fail ~system ~subsys:Check.Pmap ~invariant
            (Printf.sprintf "vmspace %d vpn %d: %s" vid vpn detail)
        in
        match
          List.find_opt (fun e -> e.spage <= vpn && vpn < e.epage) entries
        with
        | None -> fail "pmap_unmapped" "translation outside any map entry"
        | Some e ->
            if not (Pmap.Prot.subsumes e.prot pte.Pmap.prot) then
              fail "pmap_prot" "translation grants more than the entry";
            resolve ~fail e (vpn - e.spage) pte)
      (Pmap.translations t.pmap)
end
