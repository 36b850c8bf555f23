(** Global UVM state: the machine plus UVM's tunables.

    The tunables expose the paper's design knobs so the experiment
    registry's ablation entries ([ablation_pageout_cluster],
    [ablation_fault_ahead] and [ablation_fault_rate], run by
    [Experiments.Ablation]) can turn individual UVM improvements off:
    - [fault_ahead]/[fault_behind]: the fault routine's window for mapping
      resident neighbour pages (paper default: 4 ahead, 3 behind);
    - [pageout_cluster]: how many dirty anonymous pages the pagedaemon
      groups into one reassigned-swap I/O (§6); a cluster of one falls
      back to BSD-style one-page pageout while keeping the rest of UVM
      (see {!aggressive_clustering}).

    The accessors, id supply, spans and I/O retry policy come from
    {!Vmiface.Kernel.Make}. *)

module Machine = Vmiface.Machine

type t = {
  mach : Machine.t;
  fault_ahead : int;
  fault_behind : int;
  pageout_cluster : int;
  (* Outstanding kernel loans (uvm_loan.to_kernel), keyed by token, so the
     auditor can census every page's loan_count against live borrowers. *)
  mutable kernel_loans : (int * Physmem.Page.t list) list;
}

include Vmiface.Kernel.Make (struct
  type nonrec t = t

  let mach t = t.mach
end)

(* Pager read clustering: the most pages one vnode pagein brings in. *)
let io_cluster = 4

let create ?(fault_ahead = 4) ?(fault_behind = 3) ?(pageout_cluster = 4)
    mach =
  { mach; fault_ahead; fault_behind; pageout_cluster; kernel_loans = [] }

(* Whether the pagedaemon clusters anonymous pageouts (and aobj pageouts
   group slots), or writes one page per I/O as BSD VM does. *)
let aggressive_clustering t = t.pageout_cluster > 1

let register_kernel_loan t pages =
  let token = fresh_id t in
  t.kernel_loans <- (token, pages) :: t.kernel_loans;
  token

let unregister_kernel_loan t token =
  t.kernel_loans <- List.filter (fun (id, _) -> id <> token) t.kernel_loans

(* One (holder, frame) claim per outstanding borrowed reference, in the
   shape Check.check_loans consumes. *)
let kernel_loan_claims t =
  List.concat_map
    (fun (token, pages) ->
      List.map
        (fun (p : Physmem.Page.t) ->
          (Printf.sprintf "kernel-loan#%d" token, p.Physmem.Page.id))
        pages)
    t.kernel_loans
