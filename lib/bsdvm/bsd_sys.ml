(** Global state of the BSD VM baseline (the 4.4BSD / Mach-derived system
    the paper replaces).

    [two_step_probe], when set, is invoked between the two steps of the
    historical insert-then-protect mapping path, letting tests observe
    the read-write security window (paper §3.1).  The accessors, id
    supply, spans and I/O retry policy come from
    {!Vmiface.Kernel.Make}. *)

module Machine = Vmiface.Machine

(* An entry of the live-anon registry.  Objects are defined after this
   module ({!Vm_object} adds [Anon_obj]); the extensible variant breaks
   the type cycle, as [Physmem.Page.tag] does for page owners. *)
type live_obj = ..

type t = {
  mach : Machine.t;
  mutable two_step_probe : (int -> unit) option;
  live_anons : (int, live_obj) Hashtbl.t;
      (** every live anonymous object of this system, by id, for the
          swap-leak audit and tier drain (paper §5.3) *)
}

include Vmiface.Kernel.Make (struct
  type nonrec t = t

  let mach t = t.mach
end)

let create mach =
  { mach; two_step_probe = None; live_anons = Hashtbl.create 64 }
