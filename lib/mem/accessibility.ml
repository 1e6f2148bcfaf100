type t = Real_zero_mem | Real_mem | Imag_mem | Bad_mem

(* 0 = immediately accessible (RealZero), 1 = moderate (Real), 2 = distant
   (Imag), 3 = infinitely distant (Bad) *)
let distance = function
  | Real_zero_mem -> 0
  | Real_mem -> 1
  | Imag_mem -> 2
  | Bad_mem -> 3

let equal a b = distance a = distance b

let to_string = function
  | Real_zero_mem -> "RealZeroMem"
  | Real_mem -> "RealMem"
  | Imag_mem -> "ImagMem"
  | Bad_mem -> "BadMem"

let pp ppf t = Format.pp_print_string ppf (to_string t)
