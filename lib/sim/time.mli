(** Virtual time.

    The simulator counts time in milliseconds held in a float; all public
    reports convert to seconds.  A distinct module (rather than bare floats
    everywhere) keeps the unit conventions in one place. *)

type t = float
(** Milliseconds since simulation start. *)

val zero : t
val ms : float -> t
val seconds : float -> t

val to_seconds : t -> float
val to_ms : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff later earlier]. *)

val pp : Format.formatter -> t -> unit
(** Prints as seconds with millisecond precision, e.g. ["12.345s"]. *)
