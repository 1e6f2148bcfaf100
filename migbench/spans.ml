(* Host-time spans, kept in memory during a traced run and written once
   at the end in the Chrome trace-event format (load the file in
   chrome://tracing or Perfetto).  Each span carries the minor-heap
   words allocated inside it. *)

type span = {
  name : string;
  tid : int;  (** 0 for the bench's own calls, else a migration's proc id *)
  start_s : float;
  stop_s : float;
  words : float;
}

type t = { origin : float; mutable spans : span list }

let create () = { origin = Unix.gettimeofday (); spans = [] }

let record t ~name ~tid ~start_s ~stop_s ~words =
  t.spans <- { name; tid; start_s; stop_s; words } :: t.spans

(* Bracket [f] with a span when tracing; a plain call otherwise. *)
let bracket t name f =
  match t with
  | None -> f ()
  | Some t ->
      let w0 = Gc.minor_words () and s0 = Unix.gettimeofday () in
      let r = f () in
      let stop_s = Unix.gettimeofday () in
      record t ~name ~tid:0 ~start_s:s0 ~stop_s
        ~words:(Gc.minor_words () -. w0);
      r

let chrome t ~metadata =
  let us s = Bjson.Float (Float.round ((s -. t.origin) *. 1e7) /. 10.) in
  let event s =
    Bjson.Obj
      [
        ("name", Bjson.String s.name);
        ("cat", Bjson.String (if s.tid = 0 then "bench" else "migration"));
        ("ph", Bjson.String "X");
        ("pid", Bjson.Int 1);
        ("tid", Bjson.Int s.tid);
        ("ts", us s.start_s);
        ("dur", Bjson.Float (Float.max 0. ((s.stop_s -. s.start_s) *. 1e6)));
        ("args", Bjson.Obj [ ("minor_words", Bjson.Float s.words) ]);
      ]
  in
  Bjson.Obj
    [
      ("traceEvents", Bjson.List (List.rev_map event t.spans));
      ("displayTimeUnit", Bjson.String "ms");
      ("metadata", metadata);
    ]

let write t ~path ~metadata =
  let oc = open_out path in
  output_string oc (Bjson.to_string (chrome t ~metadata));
  output_char oc '\n';
  close_out oc
