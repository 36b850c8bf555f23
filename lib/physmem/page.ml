type tag = ..
type tag += No_owner

type queue = Q_none | Q_free | Q_active | Q_inactive

type lstate =
  | L_free
  | L_detached
  | L_active
  | L_inactive
  | L_wired
  | L_loaned
  | L_limbo

type t = {
  id : int;
  color : int;
  data : bytes;
  mutable dirty : bool;
  mutable busy : bool;
  mutable wire_count : int;
  mutable loan_count : int;
  mutable owner : tag;
  mutable owner_offset : int;
  mutable queue : queue;
  mutable node : t Sim.Dlist.node option;
  mutable q_seq : int;  (* global enqueue stamp: FIFO order across colors *)
  mutable cached_cpu : int;  (* per-CPU free cache holding this page, -1 none *)
  mutable referenced : bool;
  (* Provenance ledger (DESIGN.md §10).  Mutated only through Physmem's
     transition function so that every move is checked for legality. *)
  mutable lstate : lstate;
  mutable l_fa : int;  (* pending fault-ahead premap: madv index, -1 none *)
  mutable l_steps : int;  (* lifecycle transitions since alloc *)
  mutable l_clusters : int;  (* pageout-cluster memberships *)
  mutable l_reassigns : int;  (* swap-slot reassignments *)
}

let is_free t = t.queue = Q_free

let lstate_name = function
  | L_free -> "free"
  | L_detached -> "detached"
  | L_active -> "active"
  | L_inactive -> "inactive"
  | L_wired -> "wired"
  | L_loaned -> "loaned"
  | L_limbo -> "limbo"
