(** Rotating-disk cost model.

    An I/O operation costs a fixed latency (seek + rotational delay) plus a
    per-page transfer time.  This captures the property the paper's Figure 5
    depends on: writing n scattered pages as n single-page operations costs
    [n * (latency + transfer)], while one clustered operation costs
    [latency + n * transfer].

    Transfers are fallible: when a {!Fault_plan} is installed, any
    operation may return [Error].  A failed operation still charges the
    clock and counts as an issued op — the time was spent before the
    device reported the error — but transfers no pages. *)

type t

val create : clock:Simclock.t -> costs:Cost_model.t -> stats:Stats.t -> t

val set_fault_plan : t -> Fault_plan.t option -> unit
(** Install (or clear) the fault plan consulted on every transfer. *)

val no_slot : int
(** The [~slot] of a transfer on a slotless device (the file system):
    0, which no swap device slot uses (they number from 1). *)

val read :
  ?sequential:bool ->
  t ->
  slot:int ->
  npages:int ->
  (unit, Fault_plan.error) result
(** One read operation transferring [npages] contiguous pages, the device
    slots [slot .. slot + npages - 1]; advances the simulated clock and
    counts the op.  With [sequential:true] the fixed per-operation latency
    is waived — the filesystem's read-ahead already has the head
    positioned (UFS-style streaming).  The slots let per-slot scripted
    faults target the transfer.  [npages] must be >= 1. *)

val write : t -> slot:int -> npages:int -> (unit, Fault_plan.error) result
(** One write operation transferring [npages] contiguous pages from device
    slot [slot]. *)

val read_ops : t -> int
val write_ops : t -> int
val pages_read : t -> int
