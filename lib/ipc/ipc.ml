(** Simulated kernel IPC: pipes and stream sockets over mbuf chains.

    The paper's §6 motivates loanout, page transfer and map-entry passing
    as the mechanisms that move IPC data from process to kernel to
    process without copying.  This layer is their kernel client: a
    unidirectional channel queues mbuf-style segments, and the sender
    picks one of three data-movement policies per call:

    - [Copy]: the baseline (and the only policy the BSD VM supports).
      Bytes are copied user->kernel on send and kernel->user on recv —
      two copies per byte.
    - [Loan]: the sender's pages are loaned read-only into the chain
      ([uvm_loan]); the receive side pays a single delivery copy and the
      loan is returned when the segment is consumed.  COW is preserved:
      a sender write after send faults into a fresh page, and a loaned
      page whose owner is paged out or exits survives in limbo until
      unloaned.
    - [Mexp]: page-aligned payloads travel as whole map entries
      ([uvm_mexp]); a receiver that accepts mapped delivery gets the
      pages mapped into its own space with no copy at all.

    Policies only change how bytes move, never how many are accepted:
    acceptance depends on queue capacity alone, so a Copy run on the BSD
    baseline and a Loan/Mexp run on UVM produce byte-identical streams —
    the property the torture oracle compares.  On a VM system without
    the zero-copy hooks, Loan and Mexp degrade to Copy.

    A physio-style path ([vslocked:true]) wires the user buffer with
    [vslock] around the transfer, exercising the §3.2 buffer-wiring
    cases on both kernels. *)

type policy = Copy | Loan | Mexp

let policy_name = function Copy -> "copy" | Loan -> "loan" | Mexp -> "mexp"

let all_policies = [ Copy; Loan; Mexp ]

(** Receiver liveness as the channel sees it, maintained by the process
    layer: sends keep their historical semantics while the receiver is
    [Rx_alive], gain deadline semantics when it is [Rx_swapped] (a
    swapped-out process drains its queue only after swapin) and fail fast
    once it is [Rx_dead] (reaped by the OOM policy, or exited). *)
type rx_state = Rx_alive | Rx_swapped | Rx_dead

(** Why a checked send moved no bytes (overload backpressure, §4.4BSD
    process swapping composed with bounded queues). *)
type send_error = Timed_out | Peer_dead

module Machine = Vmiface.Machine

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  (* One mbuf: either bytes copied into the kernel, or an external
     segment referencing staged (loaned / extracted) pages. *)
  type segment =
    | S_bytes of { data : bytes; mutable off : int }
    | S_stage of {
        stage : V.stage;
        start : int;  (* byte offset of the payload within the stage *)
        len : int;  (* payload bytes *)
        mutable off : int;  (* bytes already consumed *)
        mexp : bool;  (* a kernel-map extraction, not a loan *)
      }

  let seg_remaining = function
    | S_bytes s -> Bytes.length s.data - s.off
    | S_stage s -> s.len - s.off

  type chan = {
    id : int;
    cap : int;  (* byte capacity: the socket buffer high-water mark *)
    mutable segs : segment list;  (* the queue, oldest first *)
    mutable q_len : int;  (* queued payload bytes *)
    mutable closed : bool;
    mutable rx_state : rx_state;  (* receiver liveness, set by the OS layer *)
  }

  type endpoint = { tx : chan; rx : chan }

  type delivery = Data of int | Mapped of { vpn : int; npages : int; len : int }

  let pipe sys ?cap_bytes () =
    let m = V.machine sys in
    let cap =
      match cap_bytes with Some c -> c | None -> 16 * Machine.page_size m
    in
    if cap < 1 then invalid_arg "Ipc.pipe: capacity must be positive";
    {
      id = Machine.fresh_id m;
      cap;
      segs = [];
      q_len = 0;
      closed = false;
      rx_state = Rx_alive;
    }

  let socketpair sys ?cap_bytes () =
    let a = pipe sys ?cap_bytes () and b = pipe sys ?cap_bytes () in
    ({ tx = a; rx = b }, { tx = b; rx = a })

  let queued_bytes ch = ch.q_len

  (* What the segment chain holds: [queued_bytes] must always equal it. *)
  let held_bytes ch =
    List.fold_left (fun n seg -> n + seg_remaining seg) 0 ch.segs

  let set_rx_state ch st = ch.rx_state <- st

  let free_seg sys = function
    | S_bytes _ -> ()
    | S_stage s -> V.stage_free sys s.stage

  let close sys ch =
    if not ch.closed then begin
      ch.closed <- true;
      List.iter (free_seg sys) ch.segs;
      ch.segs <- [];
      ch.q_len <- 0
    end

  (* -- accounting helpers ------------------------------------------------ *)

  let charge sys us = Machine.charge (V.machine sys) us

  (* The memory-bus cost of moving [n] payload bytes by copy, scaled from
     the cost model's per-page copy charge. *)
  let charge_copy sys n =
    let m = V.machine sys in
    charge sys
      (m.Machine.costs.Sim.Cost_model.page_copy
      *. float_of_int n
      /. float_of_int (Machine.page_size m))

  let span_start sys name = Machine.span_start (V.machine sys) ~subsys:"ipc" name

  (* Every send/recv is one span; its details are built only when the
     collector is on. *)
  let span_finish sys sp ~how ~bytes ~chan =
    Machine.span_finish (V.machine sys) sp (fun () ->
        [
          ("how", how);
          ("bytes", string_of_int bytes);
          ("chan", string_of_int chan);
        ])

  (* Wire the user buffer of a physio-style transfer ([len] > 0). *)
  let vslock_buffer sys vm ~addr ~len =
    let m = V.machine sys in
    let ps = Machine.page_size m in
    m.Machine.stats.Sim.Stats.vslock_ios <-
      m.Machine.stats.Sim.Stats.vslock_ios + 1;
    let vpn = addr / ps in
    let npages = ((addr + len - 1) / ps) - vpn + 1 in
    V.vslock sys vm ~vpn ~npages

  (* Unwire the buffer of a transfer that raised [e], and re-raise it.
     The unwinding is written out rather than left to [Fun.protect],
     whose two closures every call would allocate. *)
  let vsunlock_reraise sys vm wb e =
    let bt = Printexc.get_raw_backtrace () in
    V.vsunlock sys vm wb;
    Printexc.raise_with_backtrace e bt

  (* The channel lock covers admission and the data move. *)
  let chan_lock m ch =
    let ls = m.Machine.locks in
    let cl = Sim.Lockstat.instance ls ~cls:"ipc" ~id:ch.id in
    Sim.Lockstat.acquire ls cl ~mode:Sim.Lockstat.Write;
    cl

  (* -- send -------------------------------------------------------------- *)

  (* A queue holds a few segments: a channel's capacity is a few pages. *)
  let enqueue ch seg n =
    ch.segs <- ch.segs @ [ seg ];
    ch.q_len <- ch.q_len + n

  let send_copy sys vm ch ~addr ~n =
    let m = V.machine sys in
    let data = V.read_bytes sys vm ~addr ~len:n in
    charge_copy sys n;
    m.Machine.stats.Sim.Stats.ipc_bytes_copied <-
      m.Machine.stats.Sim.Stats.ipc_bytes_copied + n;
    enqueue ch (S_bytes { data; off = 0 }) n

  let send_loan sys vm ch ~addr ~n =
    let m = V.machine sys in
    let ps = Machine.page_size m in
    let vpn = addr / ps in
    let npages = ((addr + n - 1) / ps) - vpn + 1 in
    match V.stage_loan sys vm ~vpn ~npages with
    | None -> send_copy sys vm ch ~addr ~n
    | Some stage ->
        m.Machine.stats.Sim.Stats.ipc_bytes_loaned <-
          m.Machine.stats.Sim.Stats.ipc_bytes_loaned + n;
        enqueue ch
          (S_stage
             { stage; start = addr mod ps; len = n; off = 0; mexp = false })
          n

  let send_mexp sys vm ch ~addr ~n =
    let m = V.machine sys in
    let ps = Machine.page_size m in
    if addr mod ps <> 0 || n mod ps <> 0 then
      (* Map-entry passing moves whole pages; sub-page payloads copy. *)
      send_copy sys vm ch ~addr ~n
    else
      match V.stage_mexp sys vm ~vpn:(addr / ps) ~npages:(n / ps) with
      | None -> send_copy sys vm ch ~addr ~n
      | Some stage ->
          m.Machine.stats.Sim.Stats.ipc_bytes_mapped <-
            m.Machine.stats.Sim.Stats.ipc_bytes_mapped + n;
          enqueue ch
            (S_stage { stage; start = 0; len = n; off = 0; mexp = true })
            n

  let move sys vm ch ~policy ~addr ~n =
    match policy with
    | Copy -> send_copy sys vm ch ~addr ~n
    | Loan -> send_loan sys vm ch ~addr ~n
    | Mexp -> send_mexp sys vm ch ~addr ~n

  (* [send] under the channel lock. *)
  let send_locked sys vm ~vslocked ch ~policy ~addr ~len =
    let m = V.machine sys in
    (* Acceptance is policy- and kernel-independent: capacity alone
       decides, so every kernel accepts identical byte counts. *)
    let n = min len (ch.cap - ch.q_len) in
    let n = max n 0 in
    if n > 0 then begin
      (if not vslocked then move sys vm ch ~policy ~addr ~n
       else
         let wb = vslock_buffer sys vm ~addr ~len in
         match move sys vm ch ~policy ~addr ~n with
         | () -> V.vsunlock sys vm wb
         | exception e -> vsunlock_reraise sys vm wb e);
      m.Machine.stats.Sim.Stats.ipc_sends <-
        m.Machine.stats.Sim.Stats.ipc_sends + 1
    end;
    n

  let send sys vm ?(vslocked = false) ch ~policy ~addr ~len =
    if ch.closed then invalid_arg "Ipc.send: channel is closed";
    if len < 0 then invalid_arg "Ipc.send: negative length";
    let m = V.machine sys in
    let span = span_start sys "send" in
    charge sys m.Machine.costs.Sim.Cost_model.syscall_overhead;
    (* Zero-copy staging faults the sender's pages under the channel
       lock, so the registry sees the ipc -> map nesting order. *)
    let cl = chan_lock m ch in
    let n =
      match send_locked sys vm ~vslocked ch ~policy ~addr ~len with
      | n ->
          Sim.Lockstat.release m.Machine.locks cl;
          n
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Sim.Lockstat.release m.Machine.locks cl;
          Printexc.raise_with_backtrace e bt
    in
    span_finish sys span ~how:(policy_name policy) ~bytes:n ~chan:ch.id;
    n

  (* Deadline semantics for overloaded receivers.  [send] keeps its
     historical partial-write behaviour (the torture oracle depends on it
     being capacity-only); [send_checked] layers receiver liveness on
     top.  A reaped peer fails every send immediately; a swapped-out peer
     whose queue is full cannot drain before the deadline, so the caller
     is charged the deadline wait and told so, instead of blocking on a
     receiver the swap policy already parked. *)
  let deadline_wait_us = 1_000.0

  let send_checked sys vm ?vslocked ch ~policy ~addr ~len =
    match ch.rx_state with
    | Rx_dead -> Error Peer_dead
    | Rx_swapped when len > 0 && ch.cap - ch.q_len <= 0 ->
        let span = span_start sys "send" in
        charge sys deadline_wait_us;
        span_finish sys span ~how:"timed_out" ~bytes:0 ~chan:ch.id;
        Error Timed_out
    | Rx_alive | Rx_swapped ->
        Ok (send sys vm ?vslocked ch ~policy ~addr ~len)

  (* -- recv -------------------------------------------------------------- *)

  (* Whole-segment mapped delivery: the head segment is a complete
     page-aligned stage no bigger than the receiver's buffer, and the VM
     system can donate its entries into the receiver. *)
  let try_mapped_delivery sys vm ch ~len =
    let ps = Machine.page_size (V.machine sys) in
    match ch.segs with
    | S_stage s :: rest
      when s.off = 0 && s.start = 0 && s.len mod ps = 0 && s.len <= len -> (
        match V.stage_map sys vm s.stage with
        | Some vpn ->
            ch.segs <- rest;
            ch.q_len <- ch.q_len - s.len;
            Some (Mapped { vpn; npages = s.len / ps; len = s.len })
        | None -> None)
    | _ -> None

  (* The segments a copy-out of [n] bytes reads from, in order.  A mexp
     stage among them is read through the kernel map here, before the
     copy-out touches the destination, so its pageins come first; it
     stands in the list as the bytes that read returned.  Without one,
     the channel's own list comes back and nothing is allocated. *)
  let rec copy_source sys segs n =
    if n <= 0 then segs
    else
      match segs with
      | [] -> []
      | (S_stage ({ mexp = true; _ } as s) as seg) :: rest ->
          let k = min (seg_remaining seg) n in
          let data = Bytes.create k in
          V.stage_blit sys s.stage ~off:(s.start + s.off) data 0 k;
          S_bytes { data; off = 0 } :: copy_source sys rest (n - k)
      | seg :: rest ->
          let rest' = copy_source sys rest (n - seg_remaining seg) in
          if rest' == rest then segs else seg :: rest'

  (* Where a receive's copy-out stands in its source: the segments not
     yet used up, and how many bytes of the first of them it has read. *)
  type cursor = {
    csys : V.sys;
    mutable rest : segment list;
    mutable read : int;
  }

  (* [V.copyout]'s fill: the next [n] bytes of the queue, blitted from
     mbuf data or a loaned frame straight into the frame [dst]. *)
  let fill cur dst dpos _ n =
    let got = ref 0 in
    while !got < n do
      match cur.rest with
      | [] -> assert false
      | seg :: rest ->
          let avail = seg_remaining seg - cur.read in
          let k = min avail (n - !got) in
          (match seg with
          | S_bytes s -> Bytes.blit s.data (s.off + cur.read) dst (dpos + !got) k
          | S_stage s ->
              V.stage_blit cur.csys s.stage
                ~off:(s.start + s.off + cur.read)
                dst (dpos + !got) k);
          got := !got + k;
          if k = avail then begin
            cur.rest <- rest;
            cur.read <- 0
          end
          else cur.read <- cur.read + k
    done

  (* Consume [n] bytes from the head of the chain, freeing each segment it
     empties. *)
  let drop_bytes sys ch n =
    let left = ref n in
    while !left > 0 do
      match ch.segs with
      | [] -> assert false
      | seg :: rest ->
          let k = min (seg_remaining seg) !left in
          (match seg with
          | S_bytes s -> s.off <- s.off + k
          | S_stage s -> s.off <- s.off + k);
          left := !left - k;
          if seg_remaining seg = 0 then begin
            ch.segs <- rest;
            free_seg sys seg
          end
    done;
    ch.q_len <- ch.q_len - n

  (* [recv] under the channel lock.  The queued bytes go straight into
     the receiver's frames, and only once all of them are there is any
     consumed: a receive into an unmapped or read-only buffer raises
     [Segv] with the channel unchanged. *)
  let recv_locked sys vm ~vslocked ~accept_mapped ch ~addr ~len =
    let mapped =
      if accept_mapped then try_mapped_delivery sys vm ch ~len else None
    in
    match mapped with
    | Some d -> d
    | None ->
        let got = max 0 (min len ch.q_len) in
        if got > 0 then begin
          let rest = copy_source sys ch.segs got in
          let cur = { csys = sys; rest; read = 0 } in
          (if not vslocked then V.copyout sys vm ~addr ~len:got fill cur
           else
             let wb = vslock_buffer sys vm ~addr ~len in
             match V.copyout sys vm ~addr ~len:got fill cur with
             | () -> V.vsunlock sys vm wb
             | exception e -> vsunlock_reraise sys vm wb e);
          drop_bytes sys ch got;
          charge_copy sys got;
          let m = V.machine sys in
          m.Machine.stats.Sim.Stats.ipc_bytes_copied <-
            m.Machine.stats.Sim.Stats.ipc_bytes_copied + got
        end;
        Data got

  let recv sys vm ?(vslocked = false) ?(accept_mapped = false) ch ~addr ~len =
    let m = V.machine sys in
    let span = span_start sys "recv" in
    charge sys m.Machine.costs.Sim.Cost_model.syscall_overhead;
    let cl = chan_lock m ch in
    let result =
      match recv_locked sys vm ~vslocked ~accept_mapped ch ~addr ~len with
      | r ->
          Sim.Lockstat.release m.Machine.locks cl;
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Sim.Lockstat.release m.Machine.locks cl;
          Printexc.raise_with_backtrace e bt
    in
    (match result with
    | Data 0 -> ()
    | Data _ | Mapped _ ->
        m.Machine.stats.Sim.Stats.ipc_recvs <-
          m.Machine.stats.Sim.Stats.ipc_recvs + 1);
    (match result with
    | Data n -> span_finish sys span ~how:"data" ~bytes:n ~chan:ch.id
    | Mapped d -> span_finish sys span ~how:"mapped" ~bytes:d.len ~chan:ch.id);
    result
end
