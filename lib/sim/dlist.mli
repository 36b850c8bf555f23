(** Doubly-linked lists with O(1) removal given a node.

    Used for physical-page queues (free/active/inactive) and other
    kernel-style intrusive lists where an element must be unlinked without
    scanning.  A node knows which list it is on, so removing a node from a
    list it does not belong to is detected as a programming error. *)

type 'a t
(** A mutable doubly-linked list. *)

type 'a node
(** A node of a list, carrying a value of type ['a]. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty list. *)

val length : 'a t -> int
(** [length t] is the number of nodes currently on [t].  O(1). *)

val is_empty : 'a t -> bool

val value : 'a node -> 'a
(** [value n] is the payload stored in [n]. *)

val on_list : 'a node -> 'a t -> bool
(** [on_list n t] is [true] iff [n] is currently linked on [t]. *)

val node : 'a -> 'a node
(** [node v] is a fresh node carrying [v], on no list.  A node may move
    between lists any number of times: linking it allocates nothing. *)

val linked : 'a node -> bool
(** [linked n] is [true] iff [n] is on some list. *)

val append : 'a t -> 'a node -> unit
(** [append t n] links [n] at the tail of [t].
    @raise Invalid_argument if [n] is already on a list. *)

val push_head : 'a t -> 'a -> 'a node
(** [push_head t v] prepends [v] in a fresh node and returns it. *)

val push_tail : 'a t -> 'a -> 'a node
(** [push_tail t v] appends [v] in a fresh node and returns it. *)

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t].
    @raise Invalid_argument if [n] is not on [t]. *)

val pop_head : 'a t -> 'a option
(** [pop_head t] removes and returns the head value, if any. *)

val pop_tail : 'a t -> 'a option
(** [pop_tail t] removes and returns the tail value, if any. *)

val peek_head : 'a t -> 'a option

val head_node : 'a t -> 'a node option
val next_node : 'a node -> 'a node option
(** Neither allocates: each returns the link the list already holds. *)

val to_list : 'a t -> 'a list
