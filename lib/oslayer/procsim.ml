(** Process-level simulation on top of a VM system.

    A functor over {!Vmiface.Vm_sig.VM_SYS}: the exact same process
    lifecycle — exec mapping text/data/bss/stack/heap and shared
    libraries, startup sysctl calls that temporarily wire buffers, the
    kernel-side user-structure and page-table allocations — runs against
    UVM and BSD VM, so differences in map-entry counts (Table 1) and fault
    counts (Table 2) come only from the VM system under test. *)

module Vmtypes = Vmiface.Vmtypes

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  module I = Ipc.Make (V)

  type segment = { seg_vpn : int; seg_pages : int }

  type proc = {
    pid : int;
    vm : V.vmspace;
    prog : Programs.t;
    ustruct_vpn : int;
    ptp : V.ptp;
    text : segment;
    data : segment;
    bss : segment;
    stack : segment;
    heap : segment;
    lib_segs : (Programs.shared_lib * segment * segment * segment) list;
        (** text, data, bss per shared library *)
    mutable dead : bool;
    mutable limits : Overload.rlimits;
    mutable swapped : bool;  (** whole process swapped out (4.4BSD-style) *)
    mutable pending_kill : bool;
        (** the OOM policy chose us while we were running: die at the
            next syscall boundary (signal-style delivery) *)
    mutable owned_chans : I.chan list;  (** channels this proc receives on *)
  }

  let ustruct_pages = 2
  let ptp_pages = 1
  let kernel_anchor_pages = 64

  (* Boot-time kernel allocation (kernel text/data/static tables).  Gives
     UVM's kernel-map merging an anchor entry, and models the always-wired
     kernel memory that UVM does not re-record in the map. *)
  let boot_kernel sys = ignore (V.kernel_alloc_wired sys ~npages:kernel_anchor_pages)

  let get_file sys name ~pages =
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    match Vfs.lookup vfs ~name with
    | vn -> vn
    | exception Not_found ->
        Vfs.create_file vfs ~name
          ~size:(pages * (V.machine sys).Vmiface.Machine.config.page_size)

  let map_image sys vm name ~text ~data ~bss =
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = get_file sys name ~pages:(text + data) in
    let text_vpn =
      V.mmap sys vm ~npages:text ~prot:Pmap.Prot.rx ~share:Vmtypes.Private
        (Vmtypes.File (vn, 0))
    in
    let data_vpn =
      if data > 0 then
        V.mmap sys vm ~npages:data ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
          (Vmtypes.File (vn, text))
      else text_vpn
    in
    let bss_vpn =
      if bss > 0 then
        V.mmap sys vm ~npages:bss ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
          Vmtypes.Zero
      else data_vpn
    in
    Vfs.vrele vfs vn;
    ( { seg_vpn = text_vpn; seg_pages = text },
      { seg_vpn = data_vpn; seg_pages = data },
      { seg_vpn = bss_vpn; seg_pages = bss } )

  (* Startup sysctl calls: each temporarily wires a one-page user buffer.
     Buffers land inside different segments, as crt0/ld.so/libc do. *)
  let run_startup_sysctls sys vm ~(stack : segment) ~(heap : segment) n =
    let spots =
      [|
        stack.seg_vpn + 1;
        heap.seg_vpn + 1;
        heap.seg_vpn + 2;
        stack.seg_vpn + 2;
      |]
    in
    for i = 0 to n - 1 do
      let buf = spots.(i mod Array.length spots) in
      let wb = V.vslock sys vm ~vpn:buf ~npages:1 in
      V.vsunlock sys vm wb
    done

  let exec sys vm (prog : Programs.t) =
    let text, data, bss =
      map_image sys vm prog.name ~text:prog.text_pages ~data:prog.data_pages
        ~bss:prog.bss_pages
    in
    let stack_vpn =
      V.mmap sys vm ~npages:prog.stack_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    let heap_npages = max prog.heap_pages prog.work_pages in
    let heap_vpn =
      V.mmap sys vm ~npages:heap_npages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    (* The ps_strings / signal-trampoline page at the top of the space. *)
    let _ps =
      V.mmap sys vm ~npages:1 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        Vmtypes.Zero
    in
    let lib_segs =
      List.map
        (fun (lib : Programs.shared_lib) ->
          let t, d, b =
            map_image sys vm lib.lib_name ~text:lib.lib_text
              ~data:lib.lib_data ~bss:lib.lib_bss
          in
          (lib, t, d, b))
        prog.libs
    in
    let stack = { seg_vpn = stack_vpn; seg_pages = prog.stack_pages } in
    let heap = { seg_vpn = heap_vpn; seg_pages = heap_npages } in
    run_startup_sysctls sys vm ~stack ~heap prog.startup_sysctls;
    (text, data, bss, stack, heap, lib_segs)

  (* Spawn a fresh process running [prog] (fork+exec collapsed: the
     transient forked image is immediately replaced, as the paper notes
     needs-copy makes nearly free). *)
  let spawn sys (prog : Programs.t) =
    let pid = Vmiface.Machine.fresh_id (V.machine sys) in
    let ustruct_vpn = V.kernel_alloc_wired sys ~npages:ustruct_pages in
    let ptp = V.pmap_alloc_ptp sys ~npages:ptp_pages in
    let vm = V.new_vmspace sys in
    let text, data, bss, stack, heap, lib_segs = exec sys vm prog in
    {
      pid;
      vm;
      prog;
      ustruct_vpn;
      ptp;
      text;
      data;
      bss;
      stack;
      heap;
      lib_segs;
      dead = false;
      limits = Overload.unlimited;
      swapped = false;
      pending_kill = false;
      owned_chans = [];
    }

  (* Swap a process out/in: its user structure is unwired while it cannot
     run (paper §3.2).  Under BSD this is kernel-map traffic; under UVM the
     state lives in the proc structure alone. *)
  let swapout_proc sys proc =
    V.swapout_ustruct sys ~vpn:proc.ustruct_vpn ~npages:ustruct_pages

  let swapin_proc sys proc =
    V.swapin_ustruct sys ~vpn:proc.ustruct_vpn ~npages:ustruct_pages

  let exit_proc sys proc =
    assert (not proc.dead);
    V.destroy_vmspace sys proc.vm;
    V.kernel_free_wired sys ~vpn:proc.ustruct_vpn ~npages:ustruct_pages;
    V.pmap_free_ptp sys proc.ptp;
    proc.dead <- true

  (* Total live map entries attributable to user processes plus the
     kernel map — the quantity Table 1 reports. *)
  let live_entries sys procs =
    V.map_entry_count (V.kernel_vmspace sys)
    + List.fold_left
        (fun acc proc -> if proc.dead then acc else acc + V.map_entry_count proc.vm)
        0 procs

  (* -- IPC syscalls (lib/ipc over this VM system) --------------------- *)

  let socketpair sys ?cap_bytes () = I.socketpair sys ?cap_bytes ()

  let send sys proc ?vslocked ch ~policy ~addr ~len =
    I.send sys proc.vm ?vslocked ch ~policy ~addr ~len

  let recv sys proc ?vslocked ?accept_mapped ch ~addr ~len =
    I.recv sys proc.vm ?vslocked ?accept_mapped ch ~addr ~len

  (* -- overload manager: rlimits, OOM victim policy, process swapout --

     The lifeboat above the pagedaemon.  Registered processes get their
     resource limits enforced at allocation points; when paging cannot
     meet demand the physmem OOM hook lands here and escalates through
     the 4.4BSD ladder: swap an idle process out entirely, then reap the
     worst-badness victim, then (only when the victim is the running
     process itself) deliver a signal-style kill at the next syscall
     boundary. *)

  type mgr = {
    msys : V.sys;
    mutable procs : proc list;  (* registration order *)
    mutable current : proc option;  (* proc running a syscall right now *)
    chan_owner : (int, proc) Hashtbl.t;  (* chan id -> receiving proc *)
    mutable on_kill : (proc -> badness:int -> unit) option;
    mutable in_policy : bool;  (* the OOM hook must not recurse *)
  }

  let mstats mgr = (V.machine mgr.msys).Vmiface.Machine.stats

  let new_mgr sys =
    {
      msys = sys;
      procs = [];
      current = None;
      chan_owner = Hashtbl.create 16;
      on_kill = None;
      in_policy = false;
    }

  let set_on_kill mgr f = mgr.on_kill <- Some f
  let register mgr proc = mgr.procs <- mgr.procs @ [ proc ]
  let live mgr = List.filter (fun p -> not p.dead) mgr.procs
  let usage mgr proc = V.vmspace_usage mgr.msys proc.vm

  (* Age counts the machine ids (pids, channels) issued since the
     process was spawned: a sequence clock, not simulated time. *)
  let proc_badness mgr proc =
    Overload.badness ~usage:(usage mgr proc)
      ~age:((V.machine mgr.msys).Vmiface.Machine.next_id - proc.pid)

  let deny mgr proc limit =
    (mstats mgr).Sim.Stats.rlimit_denials <-
      (mstats mgr).Sim.Stats.rlimit_denials + 1;
    raise (Overload.Rlimit_exceeded { pid = proc.pid; limit })

  (* Cheap per-touch check: resident_count is a counter, no walk. *)
  let check_resident mgr proc ~extra =
    if V.resident_pages proc.vm + extra > proc.limits.Overload.rl_resident
    then deny mgr proc "resident"

  (* A walking check, used at the rarer wire points. *)
  let check_wired mgr proc ~extra =
    if (usage mgr proc).Vmtypes.u_wired + extra > proc.limits.Overload.rl_wired
    then deny mgr proc "wired"

  let chan_backlog proc =
    List.fold_left
      (fun acc ch -> acc + I.queued_bytes ch)
      0 proc.owned_chans

  let set_chans proc st =
    List.iter (fun ch -> I.set_rx_state ch st) proc.owned_chans

  (* Whole-process swapout (paper-era 4.4BSD mechanism): evict the whole
     resident set to the inactive queue and unwire the user structure.
     Contents survive — the pagedaemon pages the dirty half out and the
     process' first fault after swapin brings pages back on demand. *)
  let swapout_whole mgr proc =
    let evicted = V.deactivate_resident mgr.msys proc.vm in
    swapout_proc mgr.msys proc;
    proc.swapped <- true;
    set_chans proc Ipc.Rx_swapped;
    (mstats mgr).Sim.Stats.proc_swapouts <-
      (mstats mgr).Sim.Stats.proc_swapouts + 1;
    evicted

  let swapin_whole mgr proc =
    if proc.swapped then begin
      swapin_proc mgr.msys proc;
      proc.swapped <- false;
      set_chans proc Ipc.Rx_alive;
      (mstats mgr).Sim.Stats.proc_swapins <-
        (mstats mgr).Sim.Stats.proc_swapins + 1
    end

  (* OOM teardown through the ordinary exit machinery — the audit must
     stay clean across a reap, so nothing here bypasses the map/amap/
     object paths.  A swapped-out victim gets its user structure rewired
     first so teardown unwinds the same way a normal exit does. *)
  let reap mgr ?badness proc =
    let b =
      match badness with Some b -> b | None -> proc_badness mgr proc
    in
    if proc.swapped then begin
      swapin_proc mgr.msys proc;
      proc.swapped <- false
    end;
    set_chans proc Ipc.Rx_dead;
    exit_proc mgr.msys proc;
    (mstats mgr).Sim.Stats.oom_kills <- (mstats mgr).Sim.Stats.oom_kills + 1;
    match mgr.on_kill with Some f -> f proc ~badness:b | None -> ()

  let deliver_kill mgr proc =
    proc.pending_kill <- false;
    if not proc.dead then reap mgr proc;
    raise (Overload.Killed { pid = proc.pid })

  (* The physmem last-resort hook.  Returns true iff it freed something
     worth retrying the failing allocation for. *)
  let oom_policy mgr () =
    (* Defer when the failing allocation holds the kernel map lock:
       victim teardown re-enters the kernel map (ustruct unwire, wired
       frees), so the only safe answer is to let the allocation fail and
       surface [Out_of_pages] to a caller that can cope. *)
    if mgr.in_policy || V.kernel_map_locked mgr.msys then false
    else begin
      mgr.in_policy <- true;
      (* The policy is a lockdep context break: in 4.4BSD this work is
         the swapper/reaper thread's, not the failing allocation's, so
         no order edges are drawn from the fault-path locks held outside
         (an allocation under an amap lock legally tears down a victim's
         map here). *)
      let ls = (V.machine mgr.msys).Vmiface.Machine.locks in
      let ol = Sim.Lockstat.instance ls ~cls:"oom" ~id:0 in
      Sim.Lockstat.acquire_root ls ol ~mode:Sim.Lockstat.Write;
      Fun.protect
        ~finally:(fun () ->
          Sim.Lockstat.release ls ol;
          mgr.in_policy <- false)
        (fun () ->
          let is_current p =
            match mgr.current with Some c -> c == p | None -> false
          in
          let idle =
            List.filter
              (fun p -> (not (is_current p)) && not p.swapped)
              (live mgr)
          in
          (* Stage 1: swap an idle process out whole, biggest resident
             set first (most relief per swapout), lowest pid on ties.
             Worth trying even with swap nearly full — clean file-backed
             pages reclaim without a slot — and the ladder escalates by
             itself: each round parks one more idle process, and once
             none are left stage 2 takes over. *)
          let swapout_candidate =
            List.fold_left
              (fun best p ->
                (* Even a fully paged-out process is worth swapping: it
                   still releases the wired user structure, which is
                   exactly the relief 4.4BSD's swapout rung buys when
                   paging alone has run out of road. *)
                let r = V.resident_pages p.vm in
                match best with
                | Some (_, br) when br >= r -> best
                | _ -> Some (p, r))
              None idle
          in
          match swapout_candidate with
          | Some (p, _) ->
              (* Progress either way: deactivated resident pages and/or
                 an unwired u-area for the next daemon pass to reclaim.
                 Escalation still happens — each round parks one more
                 idle process, and once none are left stage 2 reaps. *)
              ignore (swapout_whole mgr p : int);
              true
          | None -> (
              (* Stage 2: reap the worst-badness victim.  Swapped-out
                 processes are candidates too; the running process only
                 as a last resort, by deferred signal-style delivery. *)
              let victims =
                List.filter (fun p -> not (is_current p)) (live mgr)
              in
              let pick ps =
                List.fold_left
                  (fun best p ->
                    let b = proc_badness mgr p in
                    match best with
                    | Some (_, bb) when bb > b -> best
                    | Some (bp, bb) when bb = b && bp.pid > p.pid -> best
                    | _ -> Some (p, b))
                  None ps
              in
              match pick victims with
              | Some (p, b) ->
                  reap mgr ~badness:b p;
                  true
              | None -> (
                  match mgr.current with
                  | Some p ->
                      p.pending_kill <- true;
                      false
                  | None -> false)))
    end

  let install mgr =
    Physmem.set_oom_hook
      (V.machine mgr.msys).Vmiface.Machine.physmem
      (Some (fun () -> oom_policy mgr ()))

  let uninstall mgr =
    Physmem.set_oom_hook (V.machine mgr.msys).Vmiface.Machine.physmem None

  (* Syscall boundary: swap the process back in if it was parked
     (runnable transition), run the work with it marked current, and on
     any unwind with a pending kill die cleanly via {!Overload.Killed}. *)
  let run_as mgr proc f =
    if proc.dead then invalid_arg "Procsim.run_as: process is dead";
    if proc.pending_kill then deliver_kill mgr proc;
    if proc.swapped then swapin_whole mgr proc;
    let prev = mgr.current in
    mgr.current <- Some proc;
    let restore () = mgr.current <- prev in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        restore ();
        if proc.pending_kill && not proc.dead then deliver_kill mgr proc
        else raise e

  (* Rlimit-enforcing syscall wrappers (the soak workload runs through
     these; experiments that predate the lifeboat keep the raw paths). *)
  let touch_r mgr proc ~vpn access =
    run_as mgr proc (fun () ->
        check_resident mgr proc ~extra:1;
        V.touch mgr.msys proc.vm ~vpn access)

  let vslock_r mgr proc ~vpn ~npages =
    run_as mgr proc (fun () ->
        check_wired mgr proc ~extra:npages;
        V.vslock mgr.msys proc.vm ~vpn ~npages)

  (* Channel ownership: the receiving process' liveness drives the
     channel's backpressure state, and its backlog rlimit bounds what
     senders may queue on it. *)
  let own_chan mgr proc ch =
    proc.owned_chans <- ch :: proc.owned_chans;
    Hashtbl.replace mgr.chan_owner (I.(ch.id)) proc;
    I.set_rx_state ch
      (if proc.dead then Ipc.Rx_dead
       else if proc.swapped then Ipc.Rx_swapped
       else Ipc.Rx_alive)

  let pipe_owned mgr ~owner ?cap_bytes () =
    let ch = I.pipe mgr.msys ?cap_bytes () in
    own_chan mgr owner ch;
    ch

  let send_r mgr sender ?vslocked ch ~policy ~addr ~len =
    run_as mgr sender (fun () ->
        (match Hashtbl.find_opt mgr.chan_owner I.(ch.id) with
        | Some owner
          when (not owner.dead)
               && chan_backlog owner + len
                  > owner.limits.Overload.rl_backlog ->
            deny mgr owner "backlog"
        | Some _ | None -> ());
        I.send_checked mgr.msys sender.vm ?vslocked ch ~policy ~addr ~len)

  let recv_r mgr proc ?vslocked ?accept_mapped ch ~addr ~len =
    run_as mgr proc (fun () ->
        I.recv mgr.msys proc.vm ?vslocked ?accept_mapped ch ~addr ~len)

  (* Replay an access trace (from {!Trace}) against a process. *)
  let replay sys proc trace =
    List.iter
      (fun (seg, page, access) ->
        let segment =
          match seg with
          | Trace.Seg_text -> proc.text
          | Trace.Seg_data -> proc.data
          | Trace.Seg_bss -> proc.bss
          | Trace.Seg_stack -> proc.stack
          | Trace.Seg_heap -> proc.heap
          | Trace.Seg_lib i ->
              let _, t, _, _ = List.nth proc.lib_segs i in
              t
        in
        if page < segment.seg_pages then
          V.touch sys proc.vm ~vpn:(segment.seg_vpn + page) access)
      trace
end
