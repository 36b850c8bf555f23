(** The machine-dependent layer: a software MMU.

    One {!t} exists per address space (process or kernel) and holds the
    virtual-page-number -> frame translations with their protections, exactly
    the role of a pmap module in BSD (paper §2).  The paper's point that UVM
    *reuses* the BSD/Mach pmap layer is preserved here: both the [uvm] and
    [bsdvm] libraries drive this same module.

    A per-machine {!ctx} additionally maintains pv entries (reverse
    mappings from physical page to the pmaps mapping it), which the VM layers
    need to write-protect or unmap a page everywhere (COW fork, pageout,
    loanout). *)

module Prot = Prot

type ctx
(** Per-machine pmap context (pv table + cost accounting). *)

type t
(** One address space's MMU state. *)

type pte = {
  mutable page : Physmem.Page.t;
  mutable prot : Prot.t;
  mutable wired : bool;
}

val create_ctx :
  ?lifecycle:Sim.Lifecycle.t ->
  npages:int ->
  clock:Sim.Simclock.t ->
  costs:Sim.Cost_model.t ->
  stats:Sim.Stats.t ->
  unit ->
  ctx
(** [lifecycle] is the ledger-analytics sink shared with {!Physmem}
    (fault-ahead premaps resolve on {!mark_access}/{!remove_one}); a
    private one is created when omitted.  [npages] is the number of
    physical frames, whose pv lists the context keeps. *)

val create : ctx -> t
(** A fresh, empty address-space pmap. *)

val destroy : t -> unit
(** Drop every translation (process exit). *)

val enter :
  t -> vpn:int -> page:Physmem.Page.t -> prot:Prot.t -> wired:bool -> unit
(** Install (or replace) the translation for virtual page [vpn]. *)

val remove_one : t -> vpn:int -> unit
(** Remove the translation for [vpn] if present. *)

val remove_range : t -> lo:int -> hi:int -> unit
(** Remove all translations with [lo <= vpn < hi]. *)

val protect_range : t -> lo:int -> hi:int -> prot:Prot.t -> unit
(** Change protection of all translations in [lo, hi).  Translations whose
    protection would become {!Prot.none} are removed. *)

val restrict_range : t -> lo:int -> hi:int -> prot:Prot.t -> unit
(** Intersect the protection of all translations in [lo, hi) with [prot]
    (an mprotect that must not grant rights the fault path hasn't
    validated, e.g. re-enabling write on a COW page). *)

val lookup : t -> vpn:int -> pte option
(** Query a translation without charging any cost (the fault path charges
    its own costs). *)

val find : t -> vpn:int -> pte
(** {!lookup} for the hot paths, allocating no option.
    @raise Not_found if [vpn] has no translation. *)

val permits : t -> vpn:int -> write:bool -> bool
(** Whether [vpn] has a translation whose protection allows the access
    (read, or write when [write]): the MMU's hit test, charging
    nothing. *)

val resident_count : t -> int
(** Number of valid translations (the process' resident set size). *)

val translations : t -> (int * pte) list
(** Every [(vpn, pte)] translation, sorted by vpn.  Charges no cost: this
    is the invariant auditor's read-only walk, not a simulated MMU op. *)

val page_remove_all : ctx -> Physmem.Page.t -> unit
(** Remove every translation of a physical page, in every pmap
    (pageout path). *)

val page_remove_unwired : ctx -> Physmem.Page.t -> unit
(** Remove every {e unwired} translation of a physical page.  The COW
    shootdown paths use this instead of {!page_remove_all}: a wired
    translation records which page holds the wire count, so dropping it
    would strand the count until teardown trips over a still-wired frame.
    A wired translation left behind is either still valid (its own map
    entry resolves the same page) or an incoherence the invariant auditor
    reports. *)

val page_protect_all : ctx -> Physmem.Page.t -> prot:Prot.t -> unit
(** Restrict every translation of a physical page (loanout write-protect). *)

val mappings_of_page : ctx -> Physmem.Page.t -> (t * int) list
(** The pv list: every (pmap, vpn) currently mapping the page. *)

val is_referenced : Physmem.Page.t -> bool
val clear_reference : ctx -> Physmem.Page.t -> unit

val mark_access : t -> vpn:int -> write:bool -> unit
(** Software emulation of the MMU reference/modified bits: called on each
    simulated memory access that hits a valid translation. *)
