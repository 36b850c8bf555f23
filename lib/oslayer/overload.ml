(** Overload policy shared by both kernels: per-process resource limits
    and the OOM badness score.

    The VM-independent half of the lifeboat.  Limits bound what one
    process may consume of each contended resource; the badness score
    ranks victims when paging and process swapout have both failed to
    meet demand.  The process manager that applies them lives in
    {!Procsim} (it needs the VM functor); this module is plain data so
    tests and the chaos scheduler can reason about policy without
    booting a kernel. *)

type rlimits = {
  rl_resident : int;  (** max resident pages *)
  rl_wired : int;  (** max wired pages (mlock + vslock) *)
  rl_backlog : int;  (** max queued bytes across owned IPC channels *)
}

let unlimited =
  {
    rl_resident = max_int;
    rl_wired = max_int;
    rl_backlog = max_int;
  }

exception Rlimit_exceeded of { pid : int; limit : string }
(** An allocation point refused to grow the process past a limit — the
    typed equivalent of EAGAIN/ENOMEM from a setrlimit'd kernel. *)

exception Killed of { pid : int }
(** Signal-style kill delivery: the OOM policy chose the currently
    running process, so the syscall it was in unwinds with this instead
    of returning — the simulated SIGKILL that lets the caller observe a
    clean mid-syscall death. *)

(* The victim score.  Footprint is what a kill frees (resident + swap);
   wired pages are discounted double since reaping cannot recycle them
   until the wiring drops and they signal kernel-entangled work; young
   processes carry a bonus so long-running work survives a fresh
   fork-bomb, the 4.4BSD bias. *)
let badness ~(usage : Vmiface.Vmtypes.usage) ~age =
  let footprint = usage.u_resident + usage.u_swap in
  let entangled = 2 * usage.u_wired in
  max 0 (footprint - entangled) + max 0 (16 - age)

let () =
  Printexc.register_printer (function
    | Rlimit_exceeded { pid; limit } ->
        Some (Printf.sprintf "Rlimit_exceeded(pid=%d, %s)" pid limit)
    | Killed { pid } -> Some (Printf.sprintf "Killed(pid=%d)" pid)
    | _ -> None)
