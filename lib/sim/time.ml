type t = float

let zero = 0.

(* written as syntactic functions (not aliases) so the non-flambda
   inliner can open-code them at hot call sites instead of emitting a
   cross-module call that boxes its float result *)
let ms x = x
let seconds x = x *. 1000.
let to_seconds t = t /. 1000.
let to_ms t = t
let add a b = a +. b
let diff later earlier = later -. earlier
let pp ppf t = Format.fprintf ppf "%.3fs" (to_seconds t)
