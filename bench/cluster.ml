(* The cluster benchmark: the open-workload (churn) scenario at
   datacenter scale.

   Four sections land in BENCH_cluster.json:

     - "policies": the four placement policies (static, random,
       threshold, destination-swap) compared on one churn configuration —
       migration rate, p50/p99 downtime, bytes on the wire, turnaround;
     - "big_run": a 1000-host run sized to execute over a million
       simulation events, as a single-world scalability probe, with the
       allocation meters on (minor words per event, live words after the
       departed jobs are released) — smoke mode runs a smaller gate
       configuration so CI can hold both throughput and allocation to a
       committed baseline (bench/BASELINE_cluster.json);
     - "swap_run": destination-swap on 100 hosts and 5,000 jobs with the
       same meters — the migration-heavy run, where the placement
       sampler's per-candidate affinity probes are a large share of the
       allocation, held to its own baseline entry;
     - "sweep": the same seed sweep run sequentially and fanned over
       OCaml domains (Accent_util.Domain_pool), with the per-seed results
       asserted structurally identical and the measured speedup reported.
       The speedup is honest: it also records how many cores the machine
       actually has, since a single-core box cannot show one.

   Run with:  dune exec bench/cluster.exe            (full sweep)
              dune exec bench/cluster.exe -- --smoke (tiny, for CI)
   Flags: --out PATH, --domains N, --seeds K. *)

open Accent_core
open Accent_experiments

let time f =
  let wall0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. wall0)

(* --- configurations ----------------------------------------------------- *)

let smoke_config =
  {
    Cluster_scenario.default_churn with
    Cluster_scenario.hosts = 20;
    jobs = 200;
    arrival_rate_per_s = 20.;
    job_think_ms = 2_000.;
  }

(* ~55 events per job (measured), so 20_000 jobs clears a million events
   comfortably while a thousand hosts keep per-host contention low *)
let big_config =
  {
    Cluster_scenario.default_churn with
    Cluster_scenario.hosts = 1_000;
    jobs = 20_000;
    arrival_rate_per_s = 400.;
    job_think_ms = 3_000.;
  }

(* the smoke-mode instrumented run: small enough for CI, large enough
   that events-per-second and words-per-event are stable *)
let gate_config =
  {
    smoke_config with
    Cluster_scenario.hosts = 50;
    jobs = 1_000;
    arrival_rate_per_s = 50.;
  }

(* the migration-heavy metered run: destination-swap searches the idle
   side of each crossing pair for a process to send back, so the
   placement sampler's share of allocation grows with how many jobs run
   at once.  Measured under the dev profile, a table-building affinity
   probe costs 125.0 against 113.0 words/event at the 50-host gate
   configuration, inside a 1.1x bound, but 171.6 against 123.5 here. *)
let swap_config = { Cluster_scenario.default_churn with jobs = 5_000 }

let sweep_config smoke =
  if smoke then smoke_config
  else
    {
      Cluster_scenario.default_churn with
      Cluster_scenario.hosts = 200;
      jobs = 2_000;
      arrival_rate_per_s = 100.;
    }

(* --- driver ------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let smoke = List.mem "--smoke" args in
  let rec flag name default = function
    | f :: v :: _ when f = name -> v
    | _ :: rest -> flag name default rest
    | [] -> default
  in
  let out = flag "--out" "BENCH_cluster.json" args in
  let domains =
    int_of_string (flag "--domains" (if smoke then "2" else "4") args)
  in
  let n_seeds = int_of_string (flag "--seeds" (if smoke then "2" else "4") args) in
  let config = if smoke then smoke_config else Cluster_scenario.default_churn in

  (* 1. policy comparison *)
  let policies, policies_wall =
    time (fun () -> Cluster_scenario.compare_churn ~config ())
  in
  print_string (Cluster_scenario.render_churn policies);
  Printf.printf "cluster: policy comparison in %.2f s\n%!" policies_wall;

  (* 2. single-world probes with the allocation meters on: the
     1000-host million-event run in full mode, a smaller gate
     configuration in smoke mode, and the destination-swap run in both
     (CI compares the smoke runs against the committed baseline) *)
  let metered name cfg policy =
    let (r, gc), wall =
      time (fun () -> Cluster_scenario.run_churn_gc ~config:cfg ~policy ())
    in
    Printf.printf
      "cluster: %s  %d hosts  %d events  %d migrations  %.2f s wall  \
       %.0f ev/s  %.1f minor words/event  %d live words after\n\
       %!"
      name r.Cluster_scenario.hosts_n r.Cluster_scenario.events
      r.Cluster_scenario.migrations wall
      (float_of_int r.Cluster_scenario.events /. Float.max 1e-9 wall)
      gc.Cluster_scenario.minor_words_per_event
      gc.Cluster_scenario.live_words_after;
    (r, gc, wall)
  in
  let big =
    metered "big run" (if smoke then gate_config else big_config)
      (Placement_policy.threshold ())
  in
  (let r, _, _ = big in
   if (not smoke) && r.Cluster_scenario.events < 1_000_000 then
     failwith
       (Printf.sprintf "cluster: big run executed only %d events (< 1M)"
          r.Cluster_scenario.events));
  let swap =
    metered "swap run" swap_config (Placement_policy.destination_swap ())
  in

  (* 3. sequential vs domain-parallel seed sweep *)
  let seeds = List.init n_seeds (fun i -> Int64.of_int (1 + i)) in
  let sw_config = sweep_config smoke in
  let policy = Placement_policy.threshold () in
  let seq, seq_wall =
    time (fun () ->
        Cluster_scenario.churn_seed_sweep ~config:sw_config ~domains:1 ~policy
          ~seeds ())
  in
  let par, par_wall =
    time (fun () ->
        Cluster_scenario.churn_seed_sweep ~config:sw_config ~domains ~policy
          ~seeds ())
  in
  if seq <> par then
    failwith "cluster: parallel sweep diverged from sequential results";
  let cores = Accent_util.Domain_pool.recommended () in
  let speedup = seq_wall /. Float.max 1e-9 par_wall in
  Printf.printf
    "cluster: sweep of %d seeds  seq %.2f s  %d-domain %.2f s  speedup %.2fx \
     (machine has %d cores)  per-seed results identical\n\
     %!"
    n_seeds seq_wall domains par_wall speedup cores;

  (* --- JSON ------------------------------------------------------------- *)
  let rows rs =
    Accent_util.Json.List (List.map Cluster_scenario.churn_json rs)
  in
  let metered_json (r, gc, wall) =
    let events_per_s =
      float_of_int r.Cluster_scenario.events /. Float.max 1e-9 wall
    in
    Accent_util.Json.(
      Obj
        [
          ("wall_s", Float wall);
          ("events_per_s", Float events_per_s);
          ("minor_words", Float gc.Cluster_scenario.minor_words);
          ( "minor_words_per_event",
            Float gc.Cluster_scenario.minor_words_per_event );
          ("live_words_after", Int gc.Cluster_scenario.live_words_after);
          ("result", Cluster_scenario.churn_json r);
        ])
  in
  Accent_util.Json.(
    to_file out
      (Obj
         [
           ("benchmark", String "cluster");
           ("mode", String (if smoke then "smoke" else "full"));
           ("policies", rows policies);
           ("big_run", metered_json big);
           ("swap_run", metered_json swap);
           ( "sweep",
             Obj
               [
                 ("seeds", Int n_seeds);
                 ("domains", Int domains);
                 ("cores", Int cores);
                 ("seq_wall_s", Float seq_wall);
                 ("par_wall_s", Float par_wall);
                 ("speedup", Float speedup);
                 ("identical", Bool true);
                 ("rows", rows seq);
               ] );
         ]));
  Printf.printf "cluster: wrote %s\n%!" out
