(** The JSON codec behind every artifact the simulator writes.

    Each document is built as a {!t} and printed once, so a number's
    format is part of the value: a {!Float} carries the count of
    decimals it prints with.  The parser reads back what the printer
    writes (and any other JSON text), so the tests and a replayed crash
    file need no second codec. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int
      (** a value and its decimals: printed as [%.{i d}f], and as [0]
          when not finite *)
  | String of string  (** bytes, printed with JSON escapes *)
  | List of t list
  | Object of (string * t) list  (** fields in print order *)

val float : ?decimals:int -> float -> t
(** [Float (v, decimals)]; three decimals unless told otherwise. *)

val list : ('a -> t) -> 'a list -> t
(** [List] of the mapped elements. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact text of a value: no whitespace, object fields in
    list order.  A string escapes the double quote, the backslash,
    newline, tab and carriage return by name and every other byte below
    0x20 as [\u00XX]; every other byte, UTF-8 included, is
    written as is. *)

val to_string : t -> string

val to_file : string -> t -> unit
(** Write the value to a file, followed by exactly one newline. *)

val parse : string -> t
(** Read one JSON document, surrounding whitespace allowed.  A number
    with neither a fraction nor an exponent that fits an [int] reads as
    {!Int}; any other as {!Float}, its decimals the digits after the
    point, so [parse (to_string v) = v] for every value whose floats are
    finite, carry at least one decimal and already equal their printed
    rounding.  A [\uXXXX] escape is read back as UTF-8.
    @raise Failure on malformed input. *)

(** {1 Reading a parsed document} *)

val member : string -> t -> t
(** An object's field, or {!Null} when the value is no object or has no
    such field. *)

val to_list : t -> t list
(** @raise Failure unless the value is a {!List}. *)

val to_str : t -> string
(** @raise Failure unless the value is a {!String}. *)

val to_number : t -> float
(** An {!Int} or a {!Float} as a float.
    @raise Failure on any other value. *)
