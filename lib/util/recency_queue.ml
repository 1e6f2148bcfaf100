type 's t = {
  stamp_of : 's -> int -> int;
  mutable keys : int array;
  mutable stamps : int array;
  mutable head : int; (* the entries are slots [head, tail) *)
  mutable tail : int;
  mutable live : int;
  mutable clock : int;
}

let min_compact = 64

let create ~stamp_of =
  {
    stamp_of;
    keys = [||];
    stamps = [||];
    head = 0;
    tail = 0;
    live = 0;
    clock = 0;
  }

let live q = q.live
let physical_size q = q.tail - q.head
let valid q s i = q.stamp_of s q.keys.(i) = q.stamps.(i)

(* Keep the valid entries, in order, at the front of the arrays. *)
let compact q s =
  let kept = ref 0 in
  for i = q.head to q.tail - 1 do
    if valid q s i then begin
      q.keys.(!kept) <- q.keys.(i);
      q.stamps.(!kept) <- q.stamps.(i);
      incr kept
    end
  done;
  q.head <- 0;
  q.tail <- !kept

(* Compact when stale entries would outnumber the live ones among [n]. *)
let settle q s n = if n >= min_compact && n - q.live > q.live then compact q s

let append q s key =
  settle q s (q.tail - q.head + 1);
  (if q.tail = Array.length q.keys then begin
     (* full: slide the entries down, or double the arrays when the
        entries fill half of them *)
     let n = q.tail - q.head and cap = Array.length q.keys in
     let keys, stamps =
       if 2 * n < cap then (q.keys, q.stamps)
       else
         let cap' = max 16 (2 * cap) in
         (Array.make cap' 0, Array.make cap' 0)
     in
     Array.blit q.keys q.head keys 0 n;
     Array.blit q.stamps q.head stamps 0 n;
     q.keys <- keys;
     q.stamps <- stamps;
     q.head <- 0;
     q.tail <- n
   end);
  q.clock <- q.clock + 1;
  q.keys.(q.tail) <- key;
  q.stamps.(q.tail) <- q.clock;
  q.tail <- q.tail + 1;
  q.clock

let push q s key =
  q.live <- q.live + 1;
  append q s key

let restamp q s key = append q s key

let kill q s =
  q.live <- q.live - 1;
  settle q s (q.tail - q.head)

let rec pop q s =
  if q.head = q.tail then invalid_arg "Recency_queue.pop: no live entry";
  let i = q.head in
  let key = q.keys.(i) in
  q.head <- i + 1;
  if valid q s i then begin
    q.live <- q.live - 1;
    settle q s (q.tail - q.head);
    key
  end
  else pop q s

let rec oldest q s =
  if q.head = q.tail then None
  else if valid q s q.head then Some q.keys.(q.head)
  else begin
    q.head <- q.head + 1;
    oldest q s
  end
