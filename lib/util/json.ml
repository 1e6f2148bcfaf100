type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* %g trims trailing zeros, so the first precision that round-trips
       is the shortest decimal for [f] *)
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_seq b l r f xs =
  Buffer.add_char b l;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      f x)
    xs;
  Buffer.add_char b r

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List l -> add_seq b '[' ']' (add b) l
  | Obj kvs ->
      add_seq b '{' '}'
        (fun (k, v) ->
          add b (String k);
          Buffer.add_string b ": ";
          add b v)
        kvs

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
