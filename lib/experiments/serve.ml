(** Section 7 end-to-end: a request/response server under memory pressure.

    N client processes talk to one server over stream socketpairs through
    the Procsim syscall layer.  Each request is a small copied message;
    the response payload travels under one of the three IPC policies:

    - [Copy]  — bulk copy through kernel buffers, the only policy the BSD
      VM baseline can execute;
    - [Loan]  — uvm_loan read-only page loanout, unloaned as the client
      consumes the data;
    - [Mexp]  — map-entry passing of page-aligned payloads, delivered
      mapped when the client accepts that.

    The machine is booted small and shares its RAM with a resident memory
    hog, so the pagedaemon runs while loans are outstanding — the
    interaction the loan/ledger invariants guard.  Sub-page payloads
    demonstrate the crossover: staging setup costs more than copying a
    few hundred bytes, so Loan/Mexp only win past a payload size. *)

module Vmtypes = Vmiface.Vmtypes
module Machine = Vmiface.Machine

type row = {
  sv_system : string;
  sv_policy : string;
  sv_payload : int;  (** response bytes per request *)
  sv_requests : int;
  sv_total_us : float;
  sv_mb_s : float;  (** response payload throughput *)
  sv_p50_us : float;  (** request round-trip latency percentiles *)
  sv_p95_us : float;
  sv_p99_us : float;
  sv_p99_breakdown : (string * float) list;
      (** critical-path self time per subsystem for the p99 request;
          sums to [sv_p99_us] (the request's root span duration) *)
}

type cfg = {
  clients : int;
  per_client : int;  (** requests each client issues *)
  payloads : int list;  (** response sizes in bytes *)
  ram_pages : int;
  swap_pages : int;
  hog_pages : int;  (** resident working set competing for RAM *)
}

let full_cfg =
  {
    clients = 3;
    per_client = 8;
    payloads = [ 256; 1024; 4096; 16384; 65536; 262144 ];
    ram_pages = 1024;
    swap_pages = 4096;
    hog_pages = 320;
  }

let quick_cfg =
  {
    clients = 2;
    per_client = 3;
    payloads = [ 256; 4096; 65536 ];
    ram_pages = 768;
    swap_pages = 4096;
    hog_pages = 200;
  }

let request_bytes = 128

let rank n q = min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank n q)

module Run (V : Vmiface.Vm_sig.VM_SYS) = struct
  module Ps = Oslayer.Procsim.Make (V)

  let measure cfg ~policy ~payload =
    let config =
      {
        Machine.default_config with
        Machine.ram_pages = cfg.ram_pages;
        swap_pages = cfg.swap_pages;
      }
    in
    let sys = V.boot ~config () in
    Ps.boot_kernel sys;
    let m = V.machine sys in
    (* Spans stay off for the setup phase (hog touch, mmaps) and on for
       the request loop: each request is a root span whose tree holds
       every fault, pagein, pageout and tier I/O it caused. *)
    let spans = m.Machine.spans in
    let ps = Machine.page_size m in
    let pl_pages = max 1 ((payload + ps - 1) / ps) in
    let server = Ps.spawn sys Oslayer.Programs.inetd in
    let clients =
      List.init cfg.clients (fun _ -> Ps.spawn sys Oslayer.Programs.cat)
    in
    (* The hog's written working set stays live for the whole run, so
       serving competes with it for frames and the pagedaemon fires. *)
    let hog = Ps.spawn sys Oslayer.Programs.sh in
    let hog_vpn =
      V.mmap sys hog.Ps.vm ~npages:cfg.hog_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    V.access_range sys hog.Ps.vm ~vpn:hog_vpn ~npages:cfg.hog_pages
      Vmtypes.Write;
    (* One duplex link and one receive buffer per client; the channel
       capacity holds a whole response so each request is one send. *)
    let cap = max (2 * payload) (4 * ps) in
    let links =
      List.map
        (fun c ->
          let c_end, s_end = Ps.socketpair sys ~cap_bytes:cap () in
          let buf =
            V.mmap sys c.Ps.vm ~npages:pl_pages ~prot:Pmap.Prot.rw
              ~share:Vmtypes.Private Vmtypes.Zero
          in
          (c, c_end, s_end, buf))
        clients
    in
    let req_vpn =
      V.mmap sys server.Ps.vm ~npages:1 ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    (* Response source, reused across requests.  Both zero-copy stagings
       preserve the sender's view (loanout write-protects, mexp extracts
       copy-mode), so the server's rewrite for the next response resolves
       by COW — the steady-state cost a zero-copy server really pays. *)
    let src =
      V.mmap sys server.Ps.vm ~npages:pl_pages ~prot:Pmap.Prot.rw
        ~share:Vmtypes.Private Vmtypes.Zero
    in
    let response = Bytes.make payload 'r' in
    let latencies = ref [] in
    Sim.Span.set_enabled spans true;
    let t_start = Machine.now m in
    for _ = 1 to cfg.per_client do
      List.iter
        (fun (c, c_end, s_end, buf) ->
          (* Clearing per request keeps the whole tree in the ring even
             for requests that fault hundreds of pages in. *)
          Sim.Span.clear spans;
          let root = Machine.span_start m ~subsys:"serve" "request" in
          let sent =
            Ps.send sys c c_end.Ps.I.tx ~policy:Ipc.Copy ~addr:(buf * ps)
              ~len:request_bytes
          in
          assert (sent = request_bytes);
          (match
             Ps.recv sys server s_end.Ps.I.rx ~addr:(req_vpn * ps)
               ~len:request_bytes
           with
          | Ps.I.Data n -> assert (n = request_bytes)
          | Ps.I.Mapped _ -> assert false);
          V.write_bytes sys server.Ps.vm ~addr:(src * ps) response;
          let sent = Ps.send sys server s_end.Ps.I.tx ~policy ~addr:(src * ps) ~len:payload in
          assert (sent = payload);
          (match
             Ps.recv sys c ~accept_mapped:true c_end.Ps.I.rx ~addr:(buf * ps)
               ~len:payload
           with
          | Ps.I.Data n -> assert (n = payload)
          | Ps.I.Mapped { vpn; npages; len } ->
              assert (len = payload);
              V.munmap sys c.Ps.vm ~vpn ~npages);
          Machine.span_finish m root (fun () -> []);
          (* The root span's duration IS the request latency, and its
             trace decomposes it — so the breakdown of the p99 request
             sums to the reported p99 by construction. *)
          let tree = Sim.Span.take_trace spans ~trace:root.Sim.Span.strace in
          latencies := (root.Sim.Span.sdur, Sim.Span.self_times tree)
                       :: !latencies)
        links
    done;
    Sim.Span.set_enabled spans false;
    let total_us = Machine.now m -. t_start in
    let requests = cfg.clients * cfg.per_client in
    let lat = Array.of_list !latencies in
    Array.sort (fun (a, _) (b, _) -> compare a b) lat;
    let lat_only = Array.map fst lat in
    let p99_breakdown =
      if Array.length lat = 0 then [] else snd lat.(rank (Array.length lat) 0.99)
    in
    {
      sv_system = V.name;
      sv_policy = Ipc.policy_name policy;
      sv_payload = payload;
      sv_requests = requests;
      sv_total_us = total_us;
      sv_mb_s = float_of_int (payload * requests) /. total_us;
      sv_p50_us = percentile lat_only 0.50;
      sv_p95_us = percentile lat_only 0.95;
      sv_p99_us = percentile lat_only 0.99;
      sv_p99_breakdown = p99_breakdown;
    }

  let run cfg =
    List.concat_map
      (fun payload ->
        List.map
          (fun policy -> measure cfg ~policy ~payload)
          Ipc.all_policies)
      cfg.payloads
end

module Uvm_run = Run (Uvm.Sys)
module Bsd_run = Run (Bsdvm.Sys)

let run ?(quick = false) () =
  let cfg = if quick then quick_cfg else full_cfg in
  Bsd_run.run cfg @ Uvm_run.run cfg

(* Simulated-time gain of [r] over the same system's Copy row. *)
let gain rows r =
  if r.sv_policy = "copy" then "-"
  else
    match
      List.find_opt
        (fun c ->
          c.sv_system = r.sv_system
          && c.sv_payload = r.sv_payload
          && c.sv_policy = "copy")
        rows
    with
    | Some c when c.sv_total_us > 0.0 ->
        Printf.sprintf "%+.0f%%" (100.0 *. (1.0 -. (r.sv_total_us /. c.sv_total_us)))
    | Some _ | None -> "-"

(* "fault 61% | swap:slow 22% | map 9%" — the p99 request's critical
   path, largest contributors first. *)
let breakdown_string r =
  if r.sv_p99_us <= 0.0 then "-"
  else
    List.sort (fun (_, a) (_, b) -> compare b a) r.sv_p99_breakdown
    |> List.filter (fun (_, self) -> self > 0.0)
    |> List.map (fun (subsys, self) ->
           Printf.sprintf "%s %.0f%%" subsys (100.0 *. self /. r.sv_p99_us))
    |> String.concat " | "

let print rows =
  Report.title
    "Serve: N clients / 1 server under memory pressure (vs same-system copy)";
  Printf.printf "%-8s %-8s %10s %6s %12s %10s %10s %10s %10s %8s\n" "system"
    "policy" "payload" "reqs" "total" "MB/s" "p50" "p95" "p99" "gain";
  List.iter
    (fun r ->
      Printf.printf "%-8s %-8s %10d %6d %12s %10.1f %10s %10s %10s %8s\n"
        r.sv_system r.sv_policy r.sv_payload r.sv_requests
        (Report.micros r.sv_total_us)
        r.sv_mb_s
        (Report.micros r.sv_p50_us)
        (Report.micros r.sv_p95_us)
        (Report.micros r.sv_p99_us)
        (gain rows r);
      Printf.printf "%17s p99 = %s\n" "" (breakdown_string r))
    rows

let json rows =
  let f = Sim.Json.float in
  let part (subsys, self) =
    Sim.Json.Object [ ("subsys", String subsys); ("self_us", f self) ]
  in
  let row r =
    Sim.Json.Object
      [ ("system", String r.sv_system); ("policy", String r.sv_policy);
        ("payload", Int r.sv_payload); ("requests", Int r.sv_requests);
        ("total_us", f r.sv_total_us); ("mb_s", f r.sv_mb_s);
        ("p50_us", f r.sv_p50_us); ("p95_us", f r.sv_p95_us);
        ("p99_us", f r.sv_p99_us);
        ("p99_breakdown", Sim.Json.list part r.sv_p99_breakdown) ]
  in
  Sim.Json.Object
    [ ("schema", String "uvm-sim-serve/1"); ("rows", Sim.Json.list row rows) ]
