(** Independent jobs on a pool of OCaml domains.

    Every machine owns all of its state (DESIGN.md "Machine-scoped
    state"), so jobs that each boot their own machines share nothing and
    can run on separate domains.  Results come back in job order, so a
    caller that prints them from the calling domain produces the same
    output as a serial loop. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to each element of [xs] on up to
    [Domain.recommended_domain_count ()] domains, the calling domain
    included, and returns the results in the order of [xs].  Jobs
    are handed out one at a time, so a slow job does not hold back the
    rest.  If a job raises, the exception of the first such job in list
    order is re-raised once every domain has finished. *)
