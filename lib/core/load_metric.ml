open Accent_kernel

let host_load host =
  float_of_int (Host.live_proc_count host)
  +. 0.2
     *. float_of_int (Accent_sim.Queue_server.queue_length (Host.cpu host))

(* Where the process's placed bytes live, one region walk: its
   materialised pages on its own host, each imaginary region on the host
   homing the segment's backing port (unlocatable segments are dropped).
   [f acc home bytes] per share, own host first. *)
let fold_placed ~registry host proc ~init ~f =
  let space = Proc.space_exn proc in
  let pager = Host.pager host in
  Accent_mem.Address_space.fold_imag space
    ~init:(f init (Host.id host) (Accent_mem.Address_space.real_bytes space))
    ~f:(fun acc segment_id bytes ->
      let home = Pager.segment_home pager ~registry ~segment_id in
      if home < 0 then acc else f acc home bytes)

let dispersion ~registry host proc =
  fold_placed ~registry host proc ~init:[] ~f:(fun shares home bytes ->
      match List.assoc_opt home shares with
      | Some prev -> (home, prev + bytes) :: List.remove_assoc home shares
      | None -> (home, bytes) :: shares)
  |> List.sort (fun (h1, a) (h2, b) ->
         match Int.compare b a with 0 -> Int.compare h1 h2 | c -> c)

(* §6's load metrics are instantaneous, and the threshold policy acts on
   a single sample — so a one-tick queue blip can trigger a migration
   whose cost dwarfs the imbalance it "fixed".  The classic remedy
   (Barak & Shiloh's MOSIX load vectors, and every load-average since)
   is exponential smoothing of the per-host signal.  Opt-in: policies
   consume whatever load vector the sampler hands them. *)
module Ewma = struct
  type t = { alpha : float; mutable smoothed : float array option }

  let create ?(alpha = 0.3) () =
    if not (alpha > 0. && alpha <= 1.) then
      invalid_arg "Load_metric.Ewma.create: alpha must be in (0, 1]";
    { alpha; smoothed = None }

  let alpha t = t.alpha

  (* Fold [buf] through the smoother and overwrite it with the smoothed
     vector, allocating nothing after the state is seeded.  This is the
     sampler's per-tick path: the caller owns [buf] and reuses it. *)
  let observe_into t buf =
    match t.smoothed with
    | Some prev when Array.length prev = Array.length buf ->
        for i = 0 to Array.length buf - 1 do
          let s = (t.alpha *. buf.(i)) +. ((1. -. t.alpha) *. prev.(i)) in
          prev.(i) <- s;
          buf.(i) <- s
        done
    | None | Some _ ->
        (* seed (or re-seed after a topology change) with the raw sample *)
        t.smoothed <- Some (Array.copy buf)

  let observe t raw =
    let buf = Array.copy raw in
    observe_into t buf;
    buf
end

(* Two integer sums in one walk, one division: bit-identical to reading
   [host_id]'s share off {!dispersion}, without its list or sort. *)
let affinity ~registry host proc ~host_id =
  let homed = ref 0 in
  let total =
    fold_placed ~registry host proc ~init:0 ~f:(fun total home bytes ->
        if home = host_id then homed := !homed + bytes;
        total + bytes)
  in
  if total = 0 then 0. else float_of_int !homed /. float_of_int total
