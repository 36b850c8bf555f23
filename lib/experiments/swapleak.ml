(** Section 5.3 — the swap memory leak, reconstructed.

    The exact Figure 3 scenario: a process maps a three-page file
    copy-on-write and writes the middle page (first shadow object / first
    amap).  It forks; the parent writes the middle page again, the child
    writes the right-hand page.  Now BSD VM's first shadow object holds a
    middle-page copy that no lookup can reach — if the child exits it is
    still there, pinned by the surviving chain.  UVM's anon reference
    counts free it on the spot.  The [leaked_pages] audit in each facade
    counts exactly these unreachable anonymous pages. *)

module Vmtypes = Vmiface.Vmtypes

type step = { step_name : string; bsd_leak : int; uvm_leak : int }

module Scenario (V : Vmiface.Vm_sig.VM_SYS) = struct
  let run () =
    let sys = V.boot () in
    let vfs = (V.machine sys).Vmiface.Machine.vfs in
    let vn = Vfs.create_file vfs ~name:"/tmp/orig_file" ~size:(3 * 4096) in
    let parent = V.new_vmspace sys in
    let vpn =
      V.mmap sys parent ~npages:3 ~prot:Pmap.Prot.rw ~share:Vmtypes.Private
        (Vmtypes.File (vn, 0))
    in
    (* Establish + first write fault on the middle page. *)
    V.touch sys parent ~vpn:(vpn + 1) Vmtypes.Write;
    let l0 = V.leaked_pages sys in
    (* Fork; parent writes middle, child writes right-hand page. *)
    let child = V.fork sys parent in
    V.touch sys parent ~vpn:(vpn + 1) Vmtypes.Write;
    V.touch sys child ~vpn:(vpn + 2) Vmtypes.Write;
    let l1 = V.leaked_pages sys in
    (* Child exits: BSD frees the third shadow object but the chain's
       first shadow still holds the unreachable middle page. *)
    V.destroy_vmspace sys child;
    let l2 = V.leaked_pages sys in
    (* Child writing the middle page instead is the other leak the paper
       mentions; rebuild and measure that variant too. *)
    let child2 = V.fork sys parent in
    V.touch sys child2 ~vpn:(vpn + 1) Vmtypes.Write;
    let l3 = V.leaked_pages sys in
    V.destroy_vmspace sys child2;
    V.destroy_vmspace sys parent;
    let l4 = V.leaked_pages sys in
    [ l0; l1; l2; l3; l4 ]
end

module B = Scenario (Bsdvm.Sys)
module U = Scenario (Uvm.Sys)

let step_names =
  [
    "after first write fault";
    "after fork + both write faults";
    "after child exit";
    "after 2nd fork + child middle write";
    "after everything exits";
  ]

let run () =
  let b = B.run () and u = U.run () in
  List.map2
    (fun step_name (bsd_leak, uvm_leak) -> { step_name; bsd_leak; uvm_leak })
    step_names
    (List.combine b u)

let print steps =
  Report.title
    "Section 5.3: inaccessible anonymous pages in the Figure 3 scenario (BSD leaks, UVM cannot)";
  Report.row4 "Step" "BSD leak" "UVM leak" "";
  List.iter
    (fun s ->
      Report.row4 s.step_name (string_of_int s.bsd_leak)
        (string_of_int s.uvm_leak) "")
    steps

let json steps =
  Sim.Json.list
    (fun s ->
      Sim.Json.Object
        [ ("step", String s.step_name); ("bsd_leak", Int s.bsd_leak);
          ("uvm_leak", Int s.uvm_leak) ])
    steps
