(** Table 2 — page-fault counts for sample commands.

    Paper (i386, csh "time"): ls / 59 vs 33; finger chuck 128 vs 74;
    cc hello.c 1086 vs 590; man csh 114 vs 64; newaliases 229 vs 127.

    The same deterministic access trace (see {!Oslayer.Trace}) is replayed
    under both systems; UVM's fault-ahead window (4 ahead / 3 behind) maps
    resident neighbour pages on every fault, cutting the count roughly in
    half on the sequential portions of the trace. *)

module Make (V : Vmiface.Vm_sig.VM_SYS) = struct
  module P = Oslayer.Procsim.Make (V)

  let faults_for prog =
    let sys = V.boot () in
    P.boot_kernel sys;
    let stats = (V.machine sys).Vmiface.Machine.stats in
    let before = stats.Sim.Stats.faults in
    let proc = P.spawn sys prog in
    P.replay sys proc (Oslayer.Trace.command_trace prog);
    stats.Sim.Stats.faults - before

  let commands =
    [
      ("ls /", Oslayer.Programs.ls);
      ("finger chuck", Oslayer.Programs.finger);
      ("cc", Oslayer.Programs.cc);
      ("man csh", Oslayer.Programs.man);
      ("newaliases", Oslayer.Programs.newaliases);
    ]

  let run () = List.map (fun (label, prog) -> (label, faults_for prog)) commands
end

module B = Make (Bsdvm.Sys)
module U = Make (Uvm.Sys)

type result = (string * int * int) list

let run () : result =
  List.map2
    (fun (label, bsd) (_, uvm) -> (label, bsd, uvm))
    (B.run ()) (U.run ())

let paper = [ (59, 33); (128, 74); (1086, 590); (114, 64); (229, 127) ]

let print (r : result) =
  Report.title "Table 2: page fault counts (paper: BSD 59/128/1086/114/229, UVM 33/74/590/64/127)";
  Report.row4 "Command" "BSD VM" "UVM" "ratio";
  List.iter
    (fun (label, bsd, uvm) ->
      Report.row4 label (string_of_int bsd) (string_of_int uvm)
        (Report.ratio (float_of_int bsd) (float_of_int uvm)))
    r

let json (r : result) = Report.count_rows r
