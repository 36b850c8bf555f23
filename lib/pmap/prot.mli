(** Page protections (read / write / execute). *)

type t = { r : bool; w : bool; x : bool }

val none : t
val read : t  (** r-- *)

val rw : t  (** rw- *)

val rx : t  (** r-x *)

val rwx : t

val subsumes : t -> t -> bool
(** [subsumes granted wanted] is true when every access right in [wanted] is
    present in [granted]. *)

val intersect : t -> t -> t
val remove_write : t -> t
val equal : t -> t -> bool
val to_string : t -> string
