type phys = { mutable value : Page.value; mutable refs : int }

type handle = {
  id : int;
  len : int;
  pages : int array; (* physical page ids, mutated on copy-on-write *)
  mutable live : bool;
}

type store = {
  phys : (int, phys) Hashtbl.t;
  mutable next_phys : int;
  mutable handles : int;
  mutable dup_pages : int; (* pages shared by dup so far *)
  mutable copies : int; (* deferred copies actually performed *)
  mutable logical : int; (* live logical pages *)
}

let create_store () =
  {
    phys = Hashtbl.create 1024;
    next_phys = 0;
    handles = 0;
    dup_pages = 0;
    copies = 0;
    logical = 0;
  }

let alloc_phys store value =
  let id = store.next_phys in
  store.next_phys <- id + 1;
  Hashtbl.replace store.phys id { value; refs = 1 };
  id

let find_phys store id =
  match Hashtbl.find_opt store.phys id with
  | Some p -> p
  | None -> invalid_arg "Cow: dangling physical page"

let fresh_handle store len pages =
  store.handles <- store.handles + 1;
  store.logical <- store.logical + Array.length pages;
  { id = store.handles; len; pages; live = true }

let check_live h = if not h.live then invalid_arg "Cow: released handle"

let share store data =
  let len = Bytes.length data in
  let n = (len + Page.size - 1) / Page.size in
  let pages =
    Array.init n (fun i ->
        let page = Page.zero () in
        let off = i * Page.size in
        Bytes.blit data off page 0 (min Page.size (len - off));
        alloc_phys store (Page.of_bytes page))
  in
  fresh_handle store len pages

let dup store h =
  check_live h;
  Array.iter (fun id -> (find_phys store id).refs <- (find_phys store id).refs + 1)
    h.pages;
  store.dup_pages <- store.dup_pages + Array.length h.pages;
  fresh_handle store h.len (Array.copy h.pages)

let length _store h =
  check_live h;
  h.len

let read store h =
  check_live h;
  let out = Bytes.create h.len in
  let scratch = Bytes.create Page.size in
  Array.iteri
    (fun i id ->
      let p = find_phys store id in
      let off = i * Page.size in
      let n = min Page.size (h.len - off) in
      if n = Page.size then Page.blit_value p.value out off
      else begin
        Page.blit_value p.value scratch 0;
        Bytes.blit scratch 0 out off n
      end)
    h.pages;
  out

let pages_of _store h =
  check_live h;
  Array.length h.pages

(* Make page [i] of [h] exclusively owned.  Values are immutable, so
   "copying" a shared page is just a new phys slot pointing at the same
   value — the deferred-copy statistic still counts it, since Accent
   would have copied 512 bytes here. *)
let privatize store h i =
  let p = find_phys store h.pages.(i) in
  if p.refs > 1 then begin
    p.refs <- p.refs - 1;
    store.copies <- store.copies + 1;
    h.pages.(i) <- alloc_phys store p.value
  end

let write store h ~offset data =
  check_live h;
  let len = Bytes.length data in
  if offset < 0 || offset + len > h.len then invalid_arg "Cow.write: bounds";
  let first = offset / Page.size in
  let last = (offset + len - 1) / Page.size in
  for i = first to last do
    privatize store h i;
    let p = find_phys store h.pages.(i) in
    let page = Page.to_bytes p.value in
    let page_lo = i * Page.size in
    let src_lo = max 0 (page_lo - offset) in
    let dst_lo = max 0 (offset - page_lo) in
    let n = min (len - src_lo) (Page.size - dst_lo) in
    Bytes.blit data src_lo page dst_lo n;
    p.value <- Page.of_bytes page
  done

let release store h =
  if h.live then begin
    h.live <- false;
    store.logical <- store.logical - Array.length h.pages;
    Array.iter
      (fun id ->
        let p = find_phys store id in
        p.refs <- p.refs - 1;
        if p.refs = 0 then Hashtbl.remove store.phys id)
      h.pages
  end

(* --- process-image export / import -------------------------------------- *)

let live_pages store = Hashtbl.length store.phys
let logical_pages store = store.logical
let deferred_copies store = store.copies

let sharing_ratio store =
  if store.dup_pages = 0 then 1.0
  else 1.0 -. (float_of_int store.copies /. float_of_int store.dup_pages)
