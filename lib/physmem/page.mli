(** Physical page frames ([vm_page] in the paper's Figure 1).

    One [Page.t] is allocated for every page of simulated physical memory at
    boot.  Pages carry their actual contents as [bytes], so copy-on-write,
    loanout and paging can be validated for data correctness.

    Ownership: the machine-independent VM layer above (UVM or BSD VM) tags
    each allocated page with an owner via the extensible variant {!tag} —
    this keeps [physmem] independent of the layers built on top of it while
    still letting the page point back at its memory object or anon, as real
    [vm_page] structures do. *)

type tag = ..
(** Extensible ownership tag.  Each VM layer adds its own constructors
    (e.g. [Uvm_object of ...], [Anon of ...], [Shadow of ...]). *)

type tag += No_owner  (** The page is free or ownership was dropped. *)

type queue =
  | Q_none  (** not on any paging queue (e.g. wired or busy) *)
  | Q_free
  | Q_active
  | Q_inactive

(** Ledger lifecycle state (DESIGN.md §10).  Mirrors [queue] for queued
    pages and splits [Q_none] into why the page is off-queue: freshly
    allocated or mid-I/O ([L_detached]), wired ([L_wired]), wired while
    out on loan to the kernel ([L_loaned]), or owner-dropped-while-loaned
    ([L_limbo]).  Only {!Physmem}'s audited transition function may
    change it. *)
type lstate =
  | L_free
  | L_detached
  | L_active
  | L_inactive
  | L_wired
  | L_loaned
  | L_limbo

type t = {
  id : int;  (** physical frame number *)
  color : int;  (** [id mod ncolors] — its colored-queue index, fixed at boot *)
  data : bytes;  (** page contents, [page_size] bytes *)
  mutable dirty : bool;  (** modified since last cleaned *)
  mutable busy : bool;  (** I/O in progress (asserted by pagers) *)
  mutable wire_count : int;  (** > 0 means the page may not be paged out *)
  mutable loan_count : int;  (** outstanding loans (UVM page loanout) *)
  mutable owner : tag;
  mutable owner_offset : int;  (** page index within the owner object *)
  mutable queue : queue;
  mutable node : t Sim.Dlist.node option;
      (** paging-queue node, made on the first enqueue and reused by every
          later one; linked exactly while the page is on a ring *)
  mutable q_seq : int;  (** global enqueue stamp: FIFO order across colors *)
  mutable cached_cpu : int;  (** CPU whose free cache holds this page, -1 none *)
  mutable referenced : bool;  (** software-emulated reference bit *)
  mutable lstate : lstate;  (** ledger state; audited against [queue] *)
  mutable l_fa : int;  (** pending fault-ahead premap: madv index, -1 none *)
  mutable l_steps : int;  (** lifecycle transitions since alloc *)
  mutable l_clusters : int;  (** pageout-cluster memberships *)
  mutable l_reassigns : int;  (** swap-slot reassignments *)
}

val is_free : t -> bool
val lstate_name : lstate -> string

