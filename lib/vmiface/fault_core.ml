(** The page-fault mechanism both kernels share (paper §5.4).

    What the paper changes in the fault routine is resolution policy: UVM
    looks a page up in two levels, amap then object, and maps resident
    neighbours in as well (fault-ahead); BSD VM walks a shadow chain,
    copies the page up on write and tries a collapse.  Everything around
    that policy is one mechanism and lives here: the [fault] span and its
    single exit, the entry charge and counter, the map lock, the entry
    lookup and protection check, the per-structure lock around
    resolution, the out-of-memory catch, the bookkeeping on the resolved
    frame, and the step that installs a translation while keeping the
    mapping's wirings on the frame it maps.  Each kernel's fault module
    adds only its resolution policy on top of {!Make}: [Uvm_fault] and
    [Vm_fault]. *)

(** What a kernel supplies besides its map. *)
module type KERNEL = sig
  val wire_marked_first : bool
  (** Whether a wiring is recorded in the map before its pages are
      faulted in.  BSD VM marks the map first for every wiring, so during
      a BSD wire fault [entry.wired] already counts the wiring that very
      fault is creating; UVM's mlock marks it after the faults complete
      and its other wirings never touch the map (paper §3.2). *)
end

module Make (M : Map_core.S) (K : KERNEL) = struct
  (* The one exit of a fault: release the map and close the span. *)
  let finish map span ~vpn ~access r =
    M.unlock map;
    (* Tested here, not only inside [span_finish], so an untraced fault
       does not build the detail closure. *)
    if Sim.Span.live span then
      Machine.span_finish map.M.mach span (fun () ->
          [
            ("vpn", string_of_int vpn);
            ( "access",
              match access with
              | Vmtypes.Read -> "read"
              | Vmtypes.Write -> "write" );
            ( "result",
              match r with
              | Ok () -> "ok"
              | Error e -> Vmtypes.string_of_fault_error e );
          ]);
    r

  (** [locked map ~handle s ~mode step entry ~vpn ~write ~wire x] runs
      the resolution step [step map entry ~vpn ~write ~wire x] holding
      the lock of the structure [s] (amap or object) a fault resolves
      through, nested inside the map lock: the two-level locking of paper
      §4, from which the lock registry learns the map -> amap/object
      order.  The lock is released on every exit, including the
      [Out_of_pages] unwind.  An inactive registry records nothing, so
      then the step runs bare and [s]'s handle ([handle registry s]) is
      not even looked up.  The step comes with its arguments, not as a
      closure, which every fault would allocate. *)
  let locked map ~handle s ~mode step entry ~vpn ~write ~wire x =
    let ls = map.M.mach.Machine.locks in
    if not (Sim.Lockstat.active ls) then step map entry ~vpn ~write ~wire x
    else begin
      let l = handle ls s in
      Sim.Lockstat.acquire ls l ~mode;
      (* Not [Fun.protect]: its two closures would be allocated on every
         fault. *)
      match step map entry ~vpn ~write ~wire x with
      | r ->
          Sim.Lockstat.release ls l;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Sim.Lockstat.release ls l;
          Printexc.raise_with_backtrace e bt
    end

  (** [cow_copy map ~src dst] fills the fresh frame [dst] with a copy of
      [src]: the copy-on-write step of both kernels. *)
  let cow_copy map ~src dst =
    let m = map.M.mach in
    Physmem.copy_data m.Machine.physmem ~src ~dst;
    Physmem.note_fault_in m.Machine.physmem dst ~fill:Sim.Lifecycle.Fill_cow;
    m.Machine.stats.Sim.Stats.cow_copies <-
      m.Machine.stats.Sim.Stats.cow_copies + 1

  (* How many of the mapping's wirings leave the displaced frame.  mlock
     wirings are recorded in [entry.wired] and carried by the mapped
     frame's wire count, so when resolution yields a different frame they
     must travel with the translation, or a later munlock would unwire a
     frame that no longer carries them.  The wiring a wire fault is
     creating is applied to the resolved frame afterwards, never moved:
     a kernel that marks the map first has already counted it. *)
  let moving (entry : M.entry) ~wire =
    max 0 (entry.M.wired - if wire && K.wire_marked_first then 1 else 0)

  let unwire_displaced physmem prev ~transfer =
    for _ = 1 to transfer do
      Physmem.unwire physmem prev
    done

  (** [install map entry ~vpn page ~prot ~wire] maps the resolved frame
      [page] at [vpn], activating it and moving the mapping's wirings
      onto it from the frame the translation displaces.  A same-frame
      re-enter keeps an existing wired flag even on a plain fault, or the
      wirings would become invisible to the next displacement.

      [surgery], when given, is the amap or object change that makes
      [page] the one resolution finds (a COW replacement or promotion).
      It runs after the wirings leave the displaced frame, which it may
      free, and before [page] is activated.  Without it [page] is
      activated first.

      [loan_break] is the frame a loan break leaves with its loans: if
      the displaced translation is a wired one of that frame, every
      wiring on it except those its loans hold moves.

      The displaced translation is read on entry.  Only a wired one
      moves wirings or is kept, and nothing a resolution does before
      this point can remove a wired translation. *)
  let install ?loan_break ?surgery map (entry : M.entry) ~vpn page ~prot
      ~wire =
    let physmem = map.M.mach.Machine.physmem in
    (* The displaced translation's frame and wired flag, read without
       building an option ([page] and false when there is none). *)
    let prev =
      match Pmap.find map.M.pmap ~vpn with
      | pte -> pte.Pmap.page
      | exception Not_found -> page
    and prev_wired =
      match Pmap.find map.M.pmap ~vpn with
      | pte -> pte.Pmap.wired
      | exception Not_found -> false
    in
    let transfer =
      if prev_wired && prev != page then
        match loan_break with
        | Some (kept : Physmem.Page.t) when prev == kept ->
            kept.wire_count - kept.loan_count
        | Some _ | None -> moving entry ~wire
      else 0
    in
    let keep = prev_wired && prev == page in
    (match surgery with
    | None ->
        Physmem.activate physmem page;
        unwire_displaced physmem prev ~transfer
    | Some surgery ->
        unwire_displaced physmem prev ~transfer;
        surgery ();
        Physmem.activate physmem page);
    Pmap.enter map.M.pmap ~vpn ~page ~prot
      ~wired:(wire || keep || transfer > 0);
    for _ = 1 to transfer do
      Physmem.wire physmem page
    done

  (** [fault map ~vpn ~access ~wire ~forces_write ~resolve ~ahead]
      resolves a fault at [vpn] with the kernel's policy:
      - [forces_write map entry ~vpn]: whether a wire fault on a writable
        mapping must resolve as a write beyond the COW case every kernel
        forces;
      - [resolve map entry ~vpn ~write ~wire]: find or make the frame
        and {!install} it; RAM exhaustion raised inside becomes
        [Out_of_memory];
      - [ahead map entry ~vpn]: run after a resolved non-wiring fault,
        once the frame is marked referenced. *)
  let fault map ~vpn ~access ~wire ~forces_write ~resolve ~ahead =
    let m = map.M.mach in
    let stats = m.Machine.stats in
    (* The span opens before the entry charge so its duration is the
       whole fault latency. *)
    let span = Machine.span_start m ~subsys:"fault" "fault" in
    Machine.charge m m.Machine.costs.Sim.Cost_model.fault_entry;
    stats.Sim.Stats.faults <- stats.Sim.Stats.faults + 1;
    M.lock map;
    match M.lookup map ~vpn with
    | None -> finish map span ~vpn ~access (Error Vmtypes.No_entry)
    | Some entry -> (
        (* Wiring a writable COW mapping must resolve the copy now, or a
           later write fault would swap out the wired page for a copy. *)
        let write =
          access = Vmtypes.Write
          || wire
             && entry.M.prot.Pmap.Prot.w
             && (entry.M.cow || forces_write map entry ~vpn)
        in
        let wanted =
          if write then Pmap.Prot.rw
          else { Pmap.Prot.r = true; w = false; x = false }
        in
        if not (Pmap.Prot.subsumes entry.M.prot wanted) then
          finish map span ~vpn ~access (Error Vmtypes.Prot_denied)
        else
          match
            try resolve map entry ~vpn ~write ~wire
            with Physmem.Out_of_pages -> Error Vmtypes.Out_of_memory
          with
          | Error e -> finish map span ~vpn ~access (Error e)
          | Ok (page : Physmem.Page.t) ->
              let physmem = m.Machine.physmem in
              Physmem.note_demand_fault physmem page;
              if wire then begin
                Sim.Lifecycle.note_fill (Physmem.lifecycle physmem)
                  Sim.Lifecycle.Fill_wire;
                Physmem.wire physmem page
              end;
              page.referenced <- true;
              if not wire then ahead map entry ~vpn;
              finish map span ~vpn ~access (Ok ()))
end
