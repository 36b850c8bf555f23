(** A catalog of program images sized after a late-90s NetBSD/i386 userland.

    Sizes are in 4 KB pages.  [startup_sysctls] models the sysctl calls
    issued by crt0/libc during startup (each temporarily wires a buffer —
    fragmenting the map under BSD VM, paper §3.2); dynamically linked
    programs also map the shared objects in [libs] and pay the runtime
    linker's extra startup work. *)

type shared_lib = {
  lib_name : string;
  lib_text : int;
  lib_data : int;
  lib_bss : int;
}

type t = {
  name : string;
  text_pages : int;
  data_pages : int;
  bss_pages : int;
  stack_pages : int;
  heap_pages : int;
  libs : shared_lib list;
  startup_sysctls : int;
  work_pages : int;  (** heap working set written during execution *)
}

let libc = { lib_name = "/usr/lib/libc.so"; lib_text = 120; lib_data = 8; lib_bss = 6 }
let ld_so = { lib_name = "/usr/libexec/ld.so"; lib_text = 16; lib_data = 2; lib_bss = 1 }
let libutil = { lib_name = "/usr/lib/libutil.so"; lib_text = 8; lib_data = 1; lib_bss = 1 }
let libx11 = { lib_name = "/usr/lib/libX11.so"; lib_text = 180; lib_data = 10; lib_bss = 4 }
let libxt = { lib_name = "/usr/lib/libXt.so"; lib_text = 90; lib_data = 6; lib_bss = 3 }

let static ?(work = 4) name ~text ~data ~bss =
  {
    name;
    text_pages = text;
    data_pages = data;
    bss_pages = bss;
    stack_pages = 4;
    heap_pages = 4;
    libs = [];
    startup_sysctls = 1;
    work_pages = work;
  }

let dynamic ?(work = 4) name ~text ~data ~bss ?(libs = [ ld_so; libc ]) () =
  {
    name;
    text_pages = text;
    data_pages = data;
    bss_pages = bss;
    stack_pages = 4;
    heap_pages = 4;
    libs;
    startup_sysctls = 3;
    work_pages = work;
  }

(* The two programs Table 1 names. *)
let cat = static "/bin/cat" ~text:12 ~data:2 ~bss:1
let od = dynamic "/usr/bin/od" ~text:8 ~data:2 ~bss:1 ()

(* Boot-time processes. *)
let init = static "/sbin/init" ~text:20 ~data:3 ~bss:2
let sh = static "/bin/sh" ~text:40 ~data:4 ~bss:3
let getty = dynamic "/usr/libexec/getty" ~text:6 ~data:1 ~bss:1 ()
let syslogd = dynamic "/usr/sbin/syslogd" ~text:12 ~data:2 ~bss:2 ()
let cron = dynamic "/usr/sbin/cron" ~text:10 ~data:2 ~bss:1 ()
let inetd = dynamic "/usr/sbin/inetd" ~text:12 ~data:2 ~bss:1 ()
let sendmail = dynamic "/usr/sbin/sendmail" ~text:110 ~data:8 ~bss:6 ()
let nfsiod = static "/sbin/nfsiod" ~text:4 ~data:1 ~bss:1
let update = static "/sbin/update" ~text:3 ~data:1 ~bss:1
let mount_prog = static "/sbin/mount" ~text:10 ~data:2 ~bss:1
let ifconfig = static "/sbin/ifconfig" ~text:8 ~data:2 ~bss:1
let rc_script = static "/bin/rc-sh" ~text:40 ~data:4 ~bss:3

(* X11 session processes (the "starting X11 (9 processes)" row). *)
let xserver =
  dynamic "/usr/X11R6/bin/X" ~text:450 ~data:40 ~bss:30
    ~libs:[ ld_so; libc; libutil ] ()

let xterm =
  dynamic "/usr/X11R6/bin/xterm" ~text:60 ~data:6 ~bss:4
    ~libs:[ ld_so; libc; libxt; libx11 ] ()

let xclock =
  dynamic "/usr/X11R6/bin/xclock" ~text:12 ~data:2 ~bss:1
    ~libs:[ ld_so; libc; libxt; libx11 ] ()

let twm =
  dynamic "/usr/X11R6/bin/twm" ~text:50 ~data:5 ~bss:3
    ~libs:[ ld_so; libc; libx11 ] ()

let xinit = dynamic "/usr/X11R6/bin/xinit" ~text:6 ~data:1 ~bss:1 ()

(* Commands whose fault counts Table 2 reports, with text sizes scaled to
   the observed 1999 fault counts. *)
let ls = dynamic ~work:8 "/bin/ls" ~text:8 ~data:2 ~bss:1 ()
let finger = dynamic ~work:30 "/usr/bin/finger" ~text:52 ~data:4 ~bss:2 ~libs:[ ld_so; libc; libutil ] ()
(* cc is really a pipeline (cpp/cc1/as/ld); its footprint here is the
   pipeline's combined text. *)
let cc = dynamic ~work:260 "/usr/bin/cc" ~text:640 ~data:40 ~bss:24 ()
let man = dynamic ~work:25 "/usr/bin/man" ~text:38 ~data:4 ~bss:2 ()
let newaliases = dynamic ~work:60 "/usr/sbin/newaliases" ~text:100 ~data:10 ~bss:6 ()
