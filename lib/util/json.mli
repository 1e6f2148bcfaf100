(** The one JSON writer: every trace line, bench file and experiment
    document the repo emits is built as a {!t} and printed by
    {!to_string}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** keys print in list order *)

val to_string : t -> string
(** One line, with a space after each comma and colon.  Strings escape
    the double quote, the backslash and every control character.  A
    [Float] prints as the shortest decimal that reads back as the same
    float (an integral one keeps its point zero, so it stays a float to
    readers that type numbers); [nan] and the infinities print as
    [null]. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] and a newline to [path]. *)
