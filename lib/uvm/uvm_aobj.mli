(** Anonymous UVM objects ([uvm_aobj]): shared zero-fill memory.

    Backs shared anonymous mappings (System V shared memory, pageable
    kernel memory).  Data lives in the object's pages and, when paged out,
    in per-page swap slots.  Like all anonymous memory it is freed the
    moment the last reference is dropped.  Pageout uses the same
    swap-location reassignment trick as anons, so scattered dirty pages
    still leave in one clustered I/O when aggressive clustering is on. *)

val create : Uvm_sys.t -> Uvm_object.t
(** A fresh anonymous object with one reference. *)

val swslots : Uvm_object.t -> (int * int) list
(** The aobj's [(page offset, swap slot)] bindings, unordered — the
    invariant auditor's view of which slots this object claims. *)

val rebind_slot : Uvm_object.t -> pgno:int -> slot:int -> unit
(** Point an existing [(pgno, slot)] binding at a new slot without
    touching the old one — tier-drain migration, where the caller frees
    the vacated slot itself.  Raises on an unknown binding. *)
