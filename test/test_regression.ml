(* Calibration regression pins: the seven representatives under the three
   paper strategies (no prefetch), with every headline metric pinned to a
   band around the current calibrated values.  These are deliberately
   tighter than test_calibration's paper-anchored checks: they exist to
   catch accidental drift when someone touches a cost constant or a
   mechanism, not to re-derive the paper. *)
open Accent_core
open Accent_experiments

type pin = {
  name : string;
  (* (lo, hi) bands, seconds *)
  iou_transfer : float * float;
  copy_transfer : float * float;
  iou_exec : float * float;
  copy_exec : float * float;
  iou_faults : int;
}

(* Bands are ±15% around the measured values of the calibrated build
   (seed 42); see EXPERIMENTS.md for the table. *)
let band center = (center *. 0.85, center *. 1.15)

let pins =
  [
    {
      name = "Minprog";
      iou_transfer = band 0.13;
      copy_transfer = band 9.99;
      iou_exec = band 2.51;
      copy_exec = band 0.07;
      iou_faults = 24;
    };
    {
      name = "Lisp-T";
      iou_transfer = band 0.19;
      copy_transfer = band 154.4;
      iou_exec = band 15.0;
      copy_exec = (1.7, 2.9);
      iou_faults = 129;
    };
    {
      name = "Lisp-Del";
      iou_transfer = band 0.19;
      copy_transfer = band 154.2;
      iou_exec = band 138.4;
      copy_exec = band 67.7;
      iou_faults = 709;
    };
    {
      name = "PM-Start";
      iou_transfer = band 0.13;
      copy_transfer = band 31.5;
      iou_exec = band 75.0;
      copy_exec = band 23.3;
      iou_faults = 509;
    };
    {
      name = "PM-Mid";
      iou_transfer = band 0.13;
      copy_transfer = band 31.3;
      iou_exec = band 67.1;
      copy_exec = band 21.5;
      iou_faults = 449;
    };
    {
      name = "PM-End";
      iou_transfer = band 0.14;
      copy_transfer = band 34.5;
      iou_exec = band 37.6;
      copy_exec = band 11.4;
      iou_faults = 258;
    };
    {
      name = "Chess";
      iou_transfer = band 0.13;
      copy_transfer = band 13.7;
      iou_exec = band 505.4;
      copy_exec = band 491.6;
      iou_faults = 136;
    };
  ]

let in_band label (lo, hi) x =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3f within [%.3f, %.3f]" label x lo hi)
    true
    (lo <= x && x <= hi)

let check_pin pin () =
  let spec =
    Option.get (Accent_workloads.Representative.by_name pin.name)
  in
  let run strategy = Trial.run ~spec ~strategy () in
  let iou = run (Strategy.pure_iou ()) in
  let copy = run Strategy.pure_copy in
  in_band "IOU transfer" pin.iou_transfer
    (Report.rimas_transfer_seconds iou.Trial.report);
  in_band "copy transfer" pin.copy_transfer
    (Report.rimas_transfer_seconds copy.Trial.report);
  in_band "IOU exec" pin.iou_exec
    (Report.remote_execution_seconds iou.Trial.report);
  in_band "copy exec" pin.copy_exec
    (Report.remote_execution_seconds copy.Trial.report);
  Alcotest.(check int) "IOU faults = touched pages" pin.iou_faults
    iou.Trial.report.Report.dest_faults_imag;
  Alcotest.(check int) "copy has no imaginary faults" 0
    copy.Trial.report.Report.dest_faults_imag

(* --- allocation regression: migrations must not allocate O(pages) ------ *)

(* A hybrid migration's heap allocation must be a function of what the
   process *referenced*, never of how big its address space is — the
   simulator-side mirror of the paper's headline.  Run the same
   migration at 8192 and at 65536 real pages (8x) and pin the
   allocation ratio near 1.  Gc.minor_words (not Gc.allocated_bytes,
   which OCaml 5.1 inflates by promoted words at each minor collection)
   counts every allocation exactly.  The measured delta is a few
   hundred words out of ~1M; the 1.25x band is generous slack for
   incidental structure growth, not for any per-page term: one word per
   extra page would blow it 50x over. *)

let alloc_spec ~real_pages =
  let page = Accent_mem.Page.size in
  let touched = max 4 (min 256 (real_pages / 8)) in
  let rs_pages = max touched (min (real_pages / 4) 1024) in
  {
    Accent_workloads.Spec.name = Printf.sprintf "alloc-%d" real_pages;
    description = "allocation-regression workload";
    real_bytes = real_pages * page;
    total_bytes = 4 * real_pages * page;
    rs_bytes = rs_pages * page;
    touched_real_pages = touched;
    rs_touched_overlap = touched;
    real_runs = 8;
    vm_segments = 4;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 1; revisit = 0.1; run = 16 };
    refs = 2 * touched;
    total_think_ms = 100.;
    zero_touch_pages = 2;
    base_addr = 0x40000;
  }

(* Minor words from migrate() through world drain: the migration itself
   plus the remote execution it unblocks, excluding world/workload
   construction.  [live] starts the process at the source first, as the
   live-migration strategies expect. *)
let migration_words ?(live = true) ~strategy ~real_pages () =
  let world = World.create ~n_hosts:2 () in
  let proc =
    Accent_workloads.Spec.build (World.host world 0)
      (alloc_spec ~real_pages)
  in
  if live then Accent_kernel.Proc_runner.start (World.host world 0) proc;
  let completed = ref 0 in
  let alloc0 = Gc.minor_words () in
  ignore
    (Migration_manager.migrate (World.manager world 0) ~proc
       ~dest:(Migration_manager.port (World.manager world 1))
       ~strategy
       ~on_complete:(fun _ _ -> incr completed)
       ());
  ignore (World.run world);
  let words = Gc.minor_words () -. alloc0 in
  Alcotest.(check int) "migration completed" 1 !completed;
  words

let check_size_independent_allocation () =
  let strategy = Strategy.hybrid () in
  let small = migration_words ~strategy ~real_pages:8_192 () in
  let large = migration_words ~strategy ~real_pages:65_536 () in
  Alcotest.(check bool)
    (Printf.sprintf
       "hybrid allocation at 65536 pages (%.0f words) within 1.25x of 8192 \
        pages (%.0f words)"
       large small)
    true
    (large <= 1.25 *. small)

(* The resident-set and working-set RIMAS split banks the non-kept pages
   of every Data chunk: done per page, it allocated ~1M more words at
   65536 pages than at 8192 for the same events.  Cut at the kept pages'
   runs, the two sizes must agree within 1.1x, either way round.  The
   resident-set process is migrated before it runs, as the scale bench
   does. *)
let check_split_allocation ~live strategy () =
  let small = migration_words ~live ~strategy ~real_pages:8_192 () in
  let large = migration_words ~live ~strategy ~real_pages:65_536 () in
  Alcotest.(check bool)
    (Printf.sprintf
       "%s allocation at 65536 pages (%.0f words) within 1.1x of 8192 pages \
        (%.0f words)"
       (Strategy.name strategy) large small)
    true
    (Float.max large small <= 1.1 *. Float.min large small)

let suite =
  ( "regression",
    Alcotest.test_case "hybrid allocation is size-independent" `Slow
      check_size_independent_allocation
    :: Alcotest.test_case "rs allocation is size-independent" `Slow
         (check_split_allocation ~live:false (Strategy.resident_set ()))
    :: Alcotest.test_case "ws allocation is size-independent" `Slow
         (check_split_allocation ~live:true (Strategy.working_set ()))
    :: List.map
         (fun pin ->
           Alcotest.test_case (pin.name ^ " pinned") `Slow (check_pin pin))
         pins )
