(** The simulated disk: a cost model (per-operation latency plus per-page
    transfer time) and an optional {!Fault_plan} making transfers fallible.

    Every transfer returns [(unit, Fault_plan.error) result].  A failed
    operation still charges the clock — the bus time and the seek were
    spent before the device reported the error — and still counts as an
    issued operation, but transfers no pages.  [~slot] names the first of
    the [npages] consecutive device slots an operation touches, so
    scripted per-slot faults (bad media) can target them; a slotless
    device (the file system) passes {!no_slot}. *)

type t = {
  clock : Simclock.t;
  costs : Cost_model.t;
  stats : Stats.t;
  mutable plan : Fault_plan.t option;
  mutable read_ops : int;
  mutable write_ops : int;
  mutable pages_read : int;
}

let create ~clock ~costs ~stats =
  {
    clock;
    costs;
    stats;
    plan = None;
    read_ops = 0;
    write_ops = 0;
    pages_read = 0;
  }

let set_fault_plan t plan = t.plan <- plan
let no_slot = 0

(* Inlined, with [Simclock.advance], so that the cost reaches the clock
   unboxed where cross-module inlining is on. *)
let[@inline] charge t ~sequential npages =
  Simclock.advance t.clock
    ((if sequential then 0.0 else t.costs.Cost_model.disk_op_latency)
    +. (float_of_int npages *. t.costs.Cost_model.disk_page_transfer))

let inject t ~op ~slot ~npages =
  match t.plan with
  | None -> None
  | Some plan -> (
      let count = if slot = no_slot then 0 else npages in
      match Fault_plan.check plan ~op ~first:slot ~count with
      | Some _ as e ->
          t.stats.Stats.io_errors_injected <-
            t.stats.Stats.io_errors_injected + 1;
          e
      | None -> None)

let read ?(sequential = false) t ~slot ~npages =
  if npages < 1 then invalid_arg "Disk.read: npages must be >= 1";
  charge t ~sequential npages;
  t.read_ops <- t.read_ops + 1;
  t.stats.Stats.disk_read_ops <- t.stats.Stats.disk_read_ops + 1;
  match inject t ~op:Fault_plan.Read ~slot ~npages with
  | Some e -> Error e
  | None ->
      t.pages_read <- t.pages_read + npages;
      t.stats.Stats.disk_pages_read <- t.stats.Stats.disk_pages_read + npages;
      Ok ()

let write t ~slot ~npages =
  if npages < 1 then invalid_arg "Disk.write: npages must be >= 1";
  charge t ~sequential:false npages;
  t.write_ops <- t.write_ops + 1;
  t.stats.Stats.disk_write_ops <- t.stats.Stats.disk_write_ops + 1;
  match inject t ~op:Fault_plan.Write ~slot ~npages with
  | Some e -> Error e
  | None ->
      t.stats.Stats.disk_pages_written <-
        t.stats.Stats.disk_pages_written + npages;
      Ok ()

let read_ops t = t.read_ops
let write_ops t = t.write_ops
let pages_read t = t.pages_read
