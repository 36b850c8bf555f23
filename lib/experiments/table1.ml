(** Table 1 — allocated map entries for common operations.

    Paper (i386): cat (static) 11 vs 6; od (dynamic) 21 vs 12; single-user
    boot 50 vs 26; multi-user boot 400 vs 242; starting X11 (9 processes)
    275 vs 186.

    We boot an identical simulated machine under each VM system, run the
    same process workload, and count the live map entries attributable to
    it (user maps plus kernel map).  The BSD excess comes from its
    recorded wiring (user structures, page tables, sysctl buffers) and
    absent kernel-map entry merging. *)

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  module P = Oslayer.Procsim.Make (V)

  let fresh () =
    let sys = V.boot () in
    P.boot_kernel sys;
    sys

  let one_program prog =
    let sys = fresh () in
    let base = P.live_entries sys [] in
    let proc = P.spawn sys prog in
    P.live_entries sys [ proc ] - base

  let spawn_all sys progs = List.map (fun p -> P.spawn sys p) progs

  let single_user_procs = Oslayer.Programs.[ init; sh ]

  let multi_user_procs =
    Oslayer.Programs.
      [
        init;
        rc_script;
        mount_prog;
        ifconfig;
        ifconfig;
        syslogd;
        inetd;
        cron;
        sendmail;
        nfsiod;
        nfsiod;
        nfsiod;
        nfsiod;
        update;
        getty;
        getty;
        getty;
        getty;
        sh;
        sendmail;
        inetd;
        cron;
      ]

  let x11_procs =
    Oslayer.Programs.[ xinit; xserver; twm; xterm; xterm; xterm; xterm; xclock; sh ]

  let boot_scenario progs =
    let sys = fresh () in
    let base = P.live_entries sys [] in
    let procs = spawn_all sys progs in
    P.live_entries sys procs - base

  let x11_scenario () =
    (* Start from a multi-user system, then measure the delta of starting
       the X session. *)
    let sys = fresh () in
    let mprocs = spawn_all sys multi_user_procs in
    let base = P.live_entries sys mprocs in
    let xprocs = spawn_all sys x11_procs in
    P.live_entries sys (mprocs @ xprocs) - base

  let run () =
    [
      ("cat (static link)", one_program Oslayer.Programs.cat);
      ("od (dynamic link)", one_program Oslayer.Programs.od);
      ("single-user boot", boot_scenario single_user_procs);
      ("multi-user boot (no logins)", boot_scenario multi_user_procs);
      ("starting X11 (9 processes)", x11_scenario ());
    ]
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = (string * int * int) list

let run () : result =
  List.map2
    (fun (label, bsd) (_, uvm) -> (label, bsd, uvm))
    (B.run ()) (U.run ())

let paper = [ (11, 6); (21, 12); (50, 26); (400, 242); (275, 186) ]

let print (r : result) =
  Report.title "Table 1: allocated map entries (paper: BSD 11/21/50/400/275, UVM 6/12/26/242/186)";
  Report.row4 "Operation" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (label, bsd, uvm) ->
      Report.row4 label (string_of_int bsd) (string_of_int uvm)
        (Report.ratio (float_of_int bsd) (float_of_int uvm)))
    r

let json (r : result) = Report.count_rows r
