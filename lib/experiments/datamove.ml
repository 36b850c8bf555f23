(** Section 7 — VM-based data movement vs. copying.

    Paper: a single-page loanout to the networking subsystem took 26% less
    time than copying; a 256-page loanout took 78% less.  We time a
    simulated socket send of n pages under three mechanisms:
    - bulk copy into kernel buffers (the baseline);
    - page loanout (wire + write-protect, zero copies);
    - page transfer into a second process (loan-as-anons + amap import);
    - map-entry passing of the same range (cheapest per page, but
      fragments maps when used on small ranges).

    These are UVM-only mechanisms; BSD VM has no equivalent (paper §1.1),
    which is why this experiment has no BSD column. *)

module Vmtypes = Vmiface.Vmtypes
module S = Uvm.Sys

let sizes = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

type row = {
  npages : int;
  copy_us : float;
  loan_us : float;
  transfer_us : float;
  mexp_us : float;
}

let iterations = 50

let setup npages =
  let sys = S.boot () in
  let vm = S.new_vmspace sys in
  let vpn =
    S.mmap sys vm ~npages ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
      Vmtypes.Zero
  in
  S.access_range sys vm ~vpn ~npages Vmtypes.Write;
  (sys, vm, vpn)

let timed sys ~warmup f =
  let clock = (S.machine sys).Vmiface.Machine.clock in
  for _ = 1 to warmup do
    f ()
  done;
  let t0 = Sim.Simclock.now clock in
  for _ = 1 to iterations do
    f ()
  done;
  (Sim.Simclock.now clock -. t0) /. float_of_int iterations

let measure npages =
  let sys, vm, vpn = setup npages in
  let copy_us =
    timed sys ~warmup:2 (fun () ->
        let kpages = Uvm.copy_to_kernel sys vm ~vpn ~npages in
        Uvm.copy_finish sys kpages)
  in
  let loan_us =
    timed sys ~warmup:2 (fun () ->
        let loan = Uvm.loan_to_kernel vm ~vpn ~npages in
        Uvm.loan_finish sys loan)
  in
  (* Transfer and map-entry passing move the pages to a receiver process;
     the receiver unmaps what it received each round. *)
  let receiver = S.new_vmspace sys in
  let transfer_us =
    timed sys ~warmup:2 (fun () ->
        let dst_vpn =
          Uvm.page_transfer vm ~vpn ~npages ~dst:receiver ~prot:Pmap.Prot.rw
        in
        S.munmap sys receiver ~vpn:dst_vpn ~npages)
  in
  let mexp_us =
    timed sys ~warmup:2 (fun () ->
        let dst_vpn =
          Uvm.mexp_extract vm ~vpn ~npages ~dst:receiver Uvm.Mexp.Share
        in
        S.munmap sys receiver ~vpn:dst_vpn ~npages)
  in
  { npages; copy_us; loan_us; transfer_us; mexp_us }

let run () = List.map measure sizes

let improvement copy other = 100.0 *. (1.0 -. (other /. copy))

let print rows =
  Report.title
    "Section 7: data movement, n-page send (paper: loanout 26%% less than copy at 1 page, 78%% less at 256)";
  Printf.printf "%-8s %12s %12s %12s %12s %10s\n" "pages" "copy" "loanout"
    "transfer" "mexp" "loan gain";
  List.iter
    (fun r ->
      Printf.printf "%-8d %12s %12s %12s %12s %9.0f%%\n" r.npages
        (Report.micros r.copy_us) (Report.micros r.loan_us)
        (Report.micros r.transfer_us) (Report.micros r.mexp_us)
        (improvement r.copy_us r.loan_us))
    rows

let json rows =
  let f = Sim.Json.float in
  Sim.Json.list
    (fun r ->
      Sim.Json.Object
        [ ("pages", Int r.npages); ("copy_us", f r.copy_us);
          ("loan_us", f r.loan_us); ("transfer_us", f r.transfer_us);
          ("mexp_us", f r.mexp_us) ])
    rows
