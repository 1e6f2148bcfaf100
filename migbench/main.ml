(* migbench: one benchmark for the simulator's own speed and for the
   quality of the migrations it simulates.

   Four workloads, every one generated from --seed inside this single
   process on a single domain (there is no wall-clock arrival schedule,
   so the generator can never run late):

     churn-exec      1000 hosts, 20,000 jobs, threshold policy, iou+pf1:
                     ~1M events, 64 migrations -- the simulator core
     churn-migrate   100 hosts, 5,000 jobs, destination-swap policy:
                     ~0.47M events, ~3.5k migrations -- the migration path
     bigspace-lazy   iou+pf1, rs, ws and hybrid each migrating live
                     65,536-page processes on a clean link
     lossy-bulk      copy and pre-copy of the same space over a link
                     losing 1% of fragments (the ARQ path)

   "Host" is this process's wall clock, "sim" the modelled testbed's
   virtual clock.  End-to-end host times are scaled by the memory
   bandwidth a sampler process measures beside them (see [Ref_speed]).  A run repeats its
   workload for about --seconds of host time (at least three times: the
   first warms caches, and every repeat must match it) and prints the
   end-to-end metrics;
   --trace 1 instead runs a warm-up pass, an untraced pass and a pass
   with host-time spans on, prints the per-layer metrics and writes the
   spans as a Chrome trace.  The last stdout line
   is one JSON object: {"correct", "attempted", "failed", "metrics"}.
   Any failed correctness check exits 1.

   Run through migbench/run.py, which builds this in the release profile:
     python3 migbench/run.py --workload churn-exec --seed 42 --seconds 25 --trace 0 *)

open Accent_core
module CS = Accent_experiments.Cluster_scenario
module Spec = Accent_workloads.Spec
module Host = Accent_kernel.Host
module Proc = Accent_kernel.Proc
module Time = Accent_sim.Time
module Engine = Accent_sim.Engine
module QS = Accent_sim.Queue_server
module Stats = Accent_util.Stats
module Page = Accent_mem.Page
module AS = Accent_mem.Address_space
module Nms = Accent_net.Netmsgserver
module Monitor = Accent_net.Transfer_monitor

(* The development seed reproduces the ROADMAP's contract run; the
   held-out seed is for confirming a claim on inputs it was not tuned on. *)
let dev_seed = 42
let heldout_seed = 1987

(* --- metrics: name, unit, direction ------------------------------------ *)

let end_to_end =
  [
    ("host_wall_norm_s", "s", "lower");
    ("sim_events_per_norm_s", "1/s", "higher");
    ("minor_words_per_event", "words", "lower");
    ("peak_heap_mb", "MB", "lower");
    ("live_words_after", "words", "lower");
    ("setup_s", "s", "lower");
    ("downtime_ms_p50", "ms", "lower");
    ("downtime_ms_tail", "ms", "lower");
    ("turnaround_s_mean", "s", "lower");
    ("wire_bytes_per_migration", "bytes", "lower");
    ("completed_fraction", "ratio", "higher");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.events_per_op", "count");
    ("sim.host_ns_per_event", "ns");
    ("kernel.faults_zero", "count");
    ("kernel.faults_disk", "count");
    ("kernel.faults_imag", "count");
    ("kernel.fault_timeouts", "count");
    ("kernel.exec_cpu_wait_ms_p50", "ms");
    ("kernel.disk_wait_ms_p50", "ms");
    ("kernel.exec_cpu_busy_s", "s");
    ("kernel.disk_busy_s", "s");
    ("kernel.excise_s", "s");
    ("kernel.insert_s", "s");
    ("mem.evictions", "count");
    ("mem.frames_in_use", "count");
    ("ipc.messages_sent", "count");
    ("ipc.messages_forwarded", "count");
    ("net.link_bytes", "bytes");
    ("net.link_fragments", "count");
    ("net.link_utilization", "ratio");
    ("net.nms_messages", "count");
    ("net.nms_busy_s", "s");
    ("net.nms_pages_served", "count");
    ("net.bytes_control", "bytes");
    ("net.bytes_bulk", "bytes");
    ("net.bytes_fault", "bytes");
    ("net.bytes_retransmit", "bytes");
    ("net.bytes_ack", "bytes");
    ("net.arq_retransmissions", "count");
    ("net.arq_duplicates", "count");
    ("net.arq_checksum_failures", "count");
    ("net.arq_give_ups", "count");
    ("net.arq_completed_sends", "count");
    ("net.goodput_ratio", "ratio");
    ("core.migrations_started", "count");
    ("core.migrations_received", "count");
    ("core.engine_table_entries", "count");
    ("core.backing_pages_served", "count");
    ("core.prefetch_hit_ratio", "ratio");
    ("core.precopy_rounds", "count");
    ("core.precopy_bytes", "bytes");
    ("core.transfer_s", "s");
    ("core.host_ms_per_migration", "ms");
    ("core.words_per_migration", "words");
    ("workloads.build_host_ms", "ms");
    ("workloads.build_words", "words");
    ("span.capture.host_ms", "ms");
    ("span.capture.words", "words");
    ("span.transfer.host_ms", "ms");
    ("span.transfer.words", "words");
    ("span.insert.host_ms", "ms");
    ("span.insert.words", "words");
    ("span.remote.host_ms", "ms");
    ("span.remote.words", "words");
    ("trace.overhead_s", "s");
  ]

(* --- small helpers ------------------------------------------------------ *)

let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

(* --- host speed reference ------------------------------------------------ *)

(* On a shared host the simulator's speed follows the memory bandwidth
   other tenants leave it: identical repeats of churn-migrate took 1.55
   to 2.55 s within one minute, in step with the time of a streaming
   pass over memory, while a pointer chase and an ALU loop held steady.
   So a child process streams a read-modify-write burst over 8 MiB every
   20 ms on the other core and reports how long each burst took.  A
   timed phase's host seconds are scaled by [nominal_s] over the median
   burst during the phase (or during its last [window_s], if it was
   shorter): seconds at the bandwidth of a quiet machine.  The samples
   live outside the OCaml heap and the read buffer is fixed, so no heap
   metric depends on how many arrived. *)
module Ref_speed = struct
  let buf_words = 1 lsl 23 (* 64 MiB, cycled through in bursts *)
  let burst_words = 1 lsl 20
  let period_s = 0.02

  (* about the fastest burst seen on a 2-vCPU Xeon (Sapphire Rapids) VM *)
  let nominal_s = 0.0015
  let window_s = 0.2
  let min_samples = 5
  let capacity = 1 lsl 15 (* samples kept: 10 minutes at 50 a second *)
  let record = 16

  (* In the child: stream one burst per period and send (end time,
     seconds) until the parent goes away. *)
  let sample_forever fd ~parent =
    let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout buf_words in
    Bigarray.Array1.fill b 0;
    let msg = Bytes.create record in
    let seg = ref 0 in
    while Unix.getppid () = parent do
      let lo = !seg * burst_words in
      let t0 = now () in
      for i = lo to lo + burst_words - 1 do
        Bigarray.Array1.unsafe_set b i (Bigarray.Array1.unsafe_get b i + 1)
      done;
      let t1 = now () in
      Bytes.set_int64_le msg 0 (Int64.bits_of_float t1);
      Bytes.set_int64_le msg 8 (Int64.bits_of_float (t1 -. t0));
      ignore (Unix.write fd msg 0 record);
      seg := (!seg + 1) mod (buf_words / burst_words);
      Unix.sleepf period_s
    done

  type t = {
    fd : Unix.file_descr;
    chunk : Bytes.t;  (** read buffer, starting with [have] bytes of a record *)
    mutable have : int;
    at : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    burst : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
  }

  (* read whatever the child has sent into [t] *)
  let rec drain t =
    match Unix.read t.fd t.chunk t.have (Bytes.length t.chunk - t.have) with
    | 0 -> ()
    | got ->
        let len = t.have + got in
        let whole = len / record in
        for i = 0 to whole - 1 do
          let k = t.n land (capacity - 1) in
          t.at.{k} <- Int64.float_of_bits (Bytes.get_int64_le t.chunk (i * record));
          t.burst.{k} <-
            Int64.float_of_bits (Bytes.get_int64_le t.chunk ((i * record) + 8));
          t.n <- t.n + 1
        done;
        t.have <- len - (whole * record);
        Bytes.blit t.chunk (whole * record) t.chunk 0 t.have;
        drain t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

  (* Fork the sampler, before anything is printed, and wait for its first
     sample.  It is stopped and reaped at exit, and stops by itself if
     this process dies first. *)
  let start () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    let parent = Unix.getpid () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        (try sample_forever wr ~parent with _ -> ());
        Unix._exit 0
    | pid ->
        Unix.close wr;
        at_exit (fun () ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        let f64 () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout capacity in
        let t =
          { fd = rd; chunk = Bytes.create 4096; have = 0; at = f64 (); burst = f64 (); n = 0 }
        in
        Unix.set_nonblock rd;
        let deadline = now () +. 5. in
        while t.n = 0 do
          if now () > deadline then failwith "host speed sampler sent no sample";
          ignore (Unix.select [ rd ] [] [] 0.1);
          drain t
        done;
        t

  (* [s] host seconds of a phase that ended at [stop] *)
  let scale t ~stop s =
    drain t;
    let from = stop -. Float.max s window_s in
    let oldest = Int.max 0 (t.n - capacity) in
    let rec pick i acc n =
      if i < oldest then acc
      else
        let k = i land (capacity - 1) in
        if t.at.{k} > stop then pick (i - 1) acc n
        else if t.at.{k} >= from || n < min_samples then
          pick (i - 1) (t.burst.{k} :: acc) (n + 1)
        else acc
    in
    s *. nominal_s /. median (pick (t.n - 1) [] 0)
end

(* The highest percentile with at least ten samples beyond it: with n
   samples that is 100 (1 - 10/n), and no tail exists below 20. *)
let tail_percentile n =
  if n < 20 then None else Some (100. *. (1. -. (10. /. float_of_int n)))

(* Per-layer counters of one iteration, summed over every world in it. *)
module Counters = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) k v =
    Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))

  let addi t k v = add t k (float_of_int v)
  let set (t : t) k v = Hashtbl.replace t k v
  let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)
end

(* --- what one execution of a workload yields --------------------------- *)

type summary = {
  events : int;
  migrations : int;
  attempted : int;  (** jobs (churn) or migrations (trials) *)
  failed : int;
  downtime_ms_p50 : float;
  downtime_ms_tail : float;
  tail_pct : float;  (** the percentile [downtime_ms_tail] reports *)
  downtime_n : int;
  turnaround_s_mean : float;
  wire_bytes : int;
  digest : string;  (** of every simulated statistic above and below *)
}

type iteration = {
  setups : float list;
      (** host seconds of each world's set-up, scaled by [Ref_speed] *)
  wall_s : float;  (** host seconds of the timed phase *)
  norm_s : float;  (** [wall_s] scaled by [Ref_speed] *)
  words : float;  (** minor words allocated in the timed phase *)
  summary : summary;
  counters : Counters.t;
  problems : string list;  (** failed correctness checks *)
}

type workload = {
  name : string;
  why : string;
  iterate : Spans.t option -> iteration;
  extra_traced : (iteration -> Counters.t -> unit) option;
      (** per-layer numbers that need a further run (churn's static
          baseline) *)
}

(* --- churn workloads ----------------------------------------------------- *)

let churn_exec_config seed =
  {
    CS.default_churn with
    CS.churn_seed = Int64.of_int seed;
    hosts = 1_000;
    jobs = 20_000;
    arrival_rate_per_s = 400.;
    job_think_ms = 3_000.;
  }

(* 5,000 jobs keep the migrations under Stats' 4,096-sample exact
   capacity: past it churn_result's downtime percentiles come from a
   sketch with 1% buckets and read the same at every seed. *)
let churn_migrate_config seed =
  { CS.default_churn with CS.jobs = 5_000; churn_seed = Int64.of_int seed }

(* The ROADMAP contract: the 1000-host big run at the default seed. *)
let contract_events = 1_024_884
let contract_migrations = 64

(* Set-up: run_churn_gc builds its world inside the timed call, so the
   churn set-up times the same World.create at the workload's host count
   on its own, [churn_setups] times per repeat, each after a full major
   GC so that no sample pays for the previous repeat's garbage. *)
let churn_setups = 5

let churn_setup ~speed ~config spans =
  Gc.full_major ();
  let t0 = now () in
  Spans.bracket spans "setup" (fun () ->
      ignore
        (Sys.opaque_identity
           (World.create ~seed:config.CS.churn_seed ~n_hosts:config.CS.hosts ())));
  let stop = now () in
  Ref_speed.scale speed ~stop (stop -. t0)

(* Every simulated field of the result, floats in full precision. *)
let churn_digest_input (r : CS.churn_result) =
  Printf.sprintf "%d %d %d %d %h %d %d %h %h %h %d %d %h %d" r.CS.hosts_n
    r.CS.jobs_submitted r.CS.jobs_completed r.CS.events r.CS.sim_s
    r.CS.migrations r.CS.downtime_samples r.CS.migration_rate_per_s
    r.CS.downtime_ms_p50 r.CS.downtime_ms_p99 r.CS.wire_bytes
    r.CS.max_host_jobs r.CS.mean_turnaround_s
    (String.length r.CS.policy_name)

let churn_iteration ~speed ~config ~policy ~contract spans =
  let setups =
    List.init churn_setups (fun _ -> churn_setup ~speed ~config spans)
  in
  Gc.full_major ();
  let t0 = now () in
  let r, gc =
    Spans.bracket spans "run" (fun () -> CS.run_churn_gc ~config ~policy ())
  in
  let stop = now () in
  let wall_s = stop -. t0 in
  let n = r.CS.downtime_samples in
  (* churn_result carries only p50 and p99 *)
  let tail_pct, tail =
    if float_of_int n *. 0.01 >= 10. then (99., r.CS.downtime_ms_p99)
    else (50., r.CS.downtime_ms_p50)
  in
  let summary =
    {
      events = r.CS.events;
      migrations = r.CS.migrations;
      attempted = r.CS.jobs_submitted;
      failed = r.CS.jobs_submitted - r.CS.jobs_completed;
      downtime_ms_p50 = r.CS.downtime_ms_p50;
      downtime_ms_tail = tail;
      tail_pct;
      downtime_n = n;
      turnaround_s_mean = r.CS.mean_turnaround_s;
      wire_bytes = r.CS.wire_bytes;
      digest = Digest.to_hex (Digest.string (churn_digest_input r));
    }
  in
  let c = Counters.create () in
  Counters.addi c "sim.events" r.CS.events;
  Counters.set c "sim.events_per_op"
    (ratio (float_of_int r.CS.events) (float_of_int r.CS.jobs_submitted));
  Counters.set c "sim.host_ns_per_event"
    (ratio (wall_s *. 1e9) (float_of_int r.CS.events));
  Counters.addi c "core.migrations_started" r.CS.migrations;
  let problems =
    List.filter_map Fun.id
      [
        (if r.CS.jobs_submitted <> config.CS.jobs then
           Some
             (Printf.sprintf "submitted %d of %d jobs" r.CS.jobs_submitted
                config.CS.jobs)
         else None);
        (if r.CS.jobs_completed <> r.CS.jobs_submitted then
           Some
             (Printf.sprintf "%d of %d jobs never completed"
                (r.CS.jobs_submitted - r.CS.jobs_completed)
                r.CS.jobs_submitted)
         else None);
        (if
           contract
           && (r.CS.events <> contract_events
              || r.CS.migrations <> contract_migrations)
         then
           Some
             (Printf.sprintf
                "contract run: %d events and %d migrations, expected %d and %d"
                r.CS.events r.CS.migrations contract_events contract_migrations)
         else None);
      ]
  in
  {
    setups;
    wall_s;
    norm_s = Ref_speed.scale speed ~stop wall_s;
    words = gc.CS.minor_words;
    summary;
    counters = c;
    problems;
  }

(* The static policy never migrates: the same churn without it isolates
   the host cost and allocation migrations add. *)
let churn_static_diff ~speed ~config (it : iteration) c =
  let st =
    churn_iteration ~speed ~config ~policy:(Placement_policy.static ())
      ~contract:false None
  in
  let m = float_of_int it.summary.migrations in
  Counters.set c "core.host_ms_per_migration"
    (ratio ((it.norm_s -. st.norm_s) *. 1e3) m);
  Counters.set c "core.words_per_migration" (ratio (it.words -. st.words) m)

(* --- trial workloads (single migrations of big spaces) ------------------ *)

let space_pages = 65_536

(* A live program with a 65,536-page (32 MiB) real space that goes on to
   touch 512 pages; [i] makes each copy a distinct program. *)
let big_spec ~seed ~i =
  let page = Page.size in
  {
    Spec.name = Printf.sprintf "bigspace-s%d-%d" seed i;
    description = "65,536-page live process";
    real_bytes = space_pages * page;
    total_bytes = 2 * space_pages * page;
    rs_bytes = 1_024 * page;
    touched_real_pages = 512;
    rs_touched_overlap = 256;
    real_runs = 16;
    vm_segments = 8;
    pattern =
      Accent_workloads.Access_pattern.Sequential
        { streams = 2; revisit = 0.2; run = 16 };
    refs = 2_048;
    total_think_ms = 4_000.;
    zero_touch_pages = 8;
    base_addr = 0x40000;
  }

(* Every case runs at the source this long before the migration request,
   so the working-set strategies have a working set to push. *)
let migrate_after_ms = 1_000.
let write_fraction = 0.1

type case = {
  strategy : Strategy.t;
  spec : Spec.t;
  fault_plan : Accent_net.Fault_plan.t option;
  world_seed : int64;
}

(* Bus stamps of one migration: host seconds and minor words at Requested,
   Excised, Core_delivered, Rimas_delivered, Restarted and Outcome. *)
let n_stamps = 6

type stamps = { at_s : float array; at_words : float array }

let stamp_index = function
  | Mig_event.Requested _ -> 0
  | Mig_event.Excised _ -> 1
  | Mig_event.Core_delivered -> 2
  | Mig_event.Rimas_delivered _ -> 3
  | Mig_event.Restarted -> 4
  | Mig_event.Outcome _ -> 5
  | _ -> -1

let subscribe_stamps world =
  let table : (int, stamps) Hashtbl.t = Hashtbl.create 4 in
  World.on_migration_event world (fun ev ->
      let i = stamp_index ev.Mig_event.kind in
      if i >= 0 then begin
        let s =
          match Hashtbl.find_opt table ev.Mig_event.proc_id with
          | Some s -> s
          | None ->
              let s =
                {
                  at_s = Array.make n_stamps nan;
                  at_words = Array.make n_stamps nan;
                }
              in
              Hashtbl.replace table ev.Mig_event.proc_id s;
              s
        in
        s.at_s.(i) <- now ();
        s.at_words.(i) <- Gc.minor_words ()
      end);
  table

(* span.capture Requested->Excised, span.transfer ->later delivery,
   span.insert ->Restarted, span.remote ->Outcome *)
let migration_spans (s : stamps) =
  (* RIMAS can land before Core (pure IOU), so transfer ends at the later *)
  let delivered =
    if Float.is_nan s.at_s.(2) || s.at_s.(3) > s.at_s.(2) then 3 else 2
  in
  [
    ("span.capture", 0, 1);
    ("span.transfer", 1, delivered);
    ("span.insert", delivered, 4);
    ("span.remote", 4, 5);
  ]

type prepared = {
  case : case;
  world : World.t;
  proc : Proc.t;
  stamps : (int, stamps) Hashtbl.t option;
}

let prepare ~traced c case =
  let world =
    World.create ~seed:case.world_seed ?fault_plan:case.fault_plan ~n_hosts:2 ()
  in
  let stamps = if traced then Some (subscribe_stamps world) else None in
  let w0 = Gc.minor_words () and t0 = now () in
  let proc = Spec.build ~write_fraction (World.host world 0) case.spec in
  Counters.add c "workloads.build_host_ms" ((now () -. t0) *. 1e3);
  Counters.add c "workloads.build_words" (Gc.minor_words () -. w0);
  { case; world; proc; stamps }

(* The timed part of one case: run the program at the source up to the
   migration point, request the migration, run to quiescence. *)
let run_case spans p =
  Accent_kernel.Proc_runner.start (World.host p.world 0) p.proc;
  Spans.bracket spans "run.source" (fun () ->
      ignore (World.run ~limit:(Time.ms migrate_after_ms) p.world));
  let relocated = ref None in
  let report =
    Spans.bracket spans "migrate" (fun () ->
        Migration_manager.migrate (World.manager p.world 0) ~proc:p.proc
          ~dest:(Migration_manager.port (World.manager p.world 1))
          ~strategy:p.case.strategy
          ~on_complete:(fun proc _ -> relocated := Some proc)
          ())
  in
  let sim_end = Spans.bracket spans "run" (fun () -> World.run p.world) in
  (report, !relocated, sim_end)

let marked data =
  let d = Bytes.copy data in
  Bytes.set d 0 Proc.write_marker;
  d

(* Every page present in the relocated space must hold its generator
   pattern or zeros, each possibly carrying the store marker.  Returns
   the number of bad pages. *)
let verify_pages spec proc =
  let tag = Spec.content_tag spec in
  let space = Proc.space_exn proc in
  let zero_marked = marked (Page.zero ()) in
  let bad = ref 0 in
  List.iter
    (fun (lo, hi) ->
      for idx = Page.index_of_addr lo to Page.index_of_addr (hi - 1) do
        match AS.page_value space idx with
        | None -> ()
        | Some v ->
            let expected = Page.pattern_value ~tag idx in
            if
              not
                (Page.equal_value v expected
                || Page.equal_value v Page.zero_value
                ||
                let d = Page.to_bytes v in
                Bytes.equal d (marked (Page.to_bytes expected))
                || Bytes.equal d zero_marked)
            then incr bad
      done)
    (AS.real_ranges space);
  !bad

let sum_hosts world f = Array.fold_left (fun acc h -> acc + f h) 0 world.World.hosts

let stats_of_hosts world f =
  Array.fold_left (fun acc h -> Stats.merge acc (f h)) (Stats.create ())
    world.World.hosts

(* Per-layer counters of one quiescent world, read from public accessors. *)
let collect_world c world ~sim_end =
  let addi = Counters.addi c and add = Counters.add c in
  let secs t = Time.to_seconds t in
  Array.iter
    (fun h ->
      let pager = Host.pager h in
      addi "kernel.faults_zero" (Accent_kernel.Pager.faults_zero pager);
      addi "kernel.faults_disk" (Accent_kernel.Pager.faults_disk pager);
      addi "kernel.faults_imag" (Accent_kernel.Pager.faults_imag pager);
      addi "kernel.fault_timeouts" (Accent_kernel.Pager.fault_timeouts pager);
      add "kernel.exec_cpu_busy_s" (secs (QS.busy_time (Host.exec_cpu h)));
      add "kernel.disk_busy_s" (secs (QS.busy_time (Host.disk_server h)));
      addi "mem.evictions" (Accent_mem.Phys_mem.evictions (Host.mem h));
      addi "mem.frames_in_use" (Accent_mem.Phys_mem.in_use (Host.mem h));
      addi "ipc.messages_sent" (Accent_ipc.Kernel_ipc.sent (Host.kernel h));
      addi "ipc.messages_forwarded"
        (Accent_ipc.Kernel_ipc.forwarded (Host.kernel h));
      let nms = Host.nms h in
      addi "net.nms_messages" (Nms.messages_handled nms);
      add "net.nms_busy_s" (secs (Nms.busy_time nms));
      addi "net.nms_pages_served" (Nms.pages_served nms);
      match Nms.reliability nms with
      | None -> ()
      | Some r ->
          let module R = Accent_net.Reliable in
          addi "net.arq_retransmissions" (R.retransmissions r);
          addi "net.arq_duplicates" (R.duplicates r);
          addi "net.arq_checksum_failures" (R.checksum_failures r);
          addi "net.arq_give_ups" (R.give_ups r);
          addi "net.arq_completed_sends" (R.completed_sends r))
    world.World.hosts;
  Array.iter
    (fun m ->
      addi "core.migrations_started" (Migration_manager.migrations_started m);
      addi "core.migrations_received" (Migration_manager.migrations_received m);
      addi "core.backing_pages_served"
        (Backing_server.pages_served (Migration_manager.backing m)))
    world.World.managers;
  let link = world.World.link in
  addi "net.link_bytes" (Accent_net.Link.bytes_sent link);
  addi "net.link_fragments" (Accent_net.Link.fragments_sent link);
  add "net.link_busy_s" (secs (Accent_net.Link.busy_time link));
  add "sim.sim_s" (secs sim_end);
  let mon = world.World.monitor in
  List.iter
    (fun (k, cat) -> addi k (Monitor.bytes_of mon cat))
    Accent_ipc.Message.
      [
        ("net.bytes_control", Control);
        ("net.bytes_bulk", Bulk);
        ("net.bytes_fault", Fault);
        ("net.bytes_retransmit", Retransmit);
        ("net.bytes_ack", Ack);
      ];
  addi "net.goodput_bytes" (Monitor.goodput_bytes mon);
  addi "net.wire_bytes" (Monitor.bytes_total mon)

let engine_entries world =
  Array.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc (_, kvs) -> List.fold_left (fun acc (_, v) -> acc + v) acc kvs)
        acc
        (Migration_manager.engine_stats m))
    0 world.World.managers

(* Per-migration spans from the bus stamps, into the trace and into the
   span.* means. *)
let record_spans sp ~tid ~span_ms ~span_words (s : stamps) =
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (name, a, b) ->
      if not (Float.is_nan s.at_s.(a) || Float.is_nan s.at_s.(b)) then begin
        let words = s.at_words.(b) -. s.at_words.(a) in
        Spans.record sp ~name ~tid ~start_s:s.at_s.(a) ~stop_s:s.at_s.(b) ~words;
        push span_ms name ((s.at_s.(b) -. s.at_s.(a)) *. 1e3);
        push span_words name words
      end)
    (migration_spans s)

type case_result = { report : Report.t; events : int; wire : int; failed : bool }

let trial_iteration ~speed ~cases spans =
  let c = Counters.create () in
  let traced = Option.is_some spans in
  let setups = ref [] and wall_s = ref 0. and norm_s = ref 0. in
  let words = ref 0. in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let digest = Buffer.create 1024 in
  let exec_waits = ref (Stats.create ()) and disk_waits = ref (Stats.create ()) in
  let span_ms = Hashtbl.create 8 and span_words = Hashtbl.create 8 in
  let tid = ref 0 in
  (* One world at a time: set up (untimed), migrate and run (timed), then
     check and read the counters (untimed) before the next world. *)
  let run_one case =
    let t0 = now () in
    let p = Spans.bracket spans "setup" (fun () -> prepare ~traced c case) in
    let stop = now () in
    setups := Ref_speed.scale speed ~stop (stop -. t0) :: !setups;
    (* start every case from the same heap state, so the peak heap and
       the timed phase do not depend on the previous case's garbage *)
    Gc.full_major ();
    let w0 = Gc.minor_words () and t1 = now () in
    let report, relocated, sim_end = run_case spans p in
    let stop = now () in
    words := !words +. (Gc.minor_words () -. w0);
    wall_s := !wall_s +. (stop -. t1);
    norm_s := !norm_s +. Ref_speed.scale speed ~stop (stop -. t1);
    let w = p.world in
    let name = case.spec.Spec.name ^ "/" ^ Strategy.name case.strategy in
    let give_ups = sum_hosts w (fun h -> Nms.transport_give_ups (Host.nms h)) in
    let completed = report.Report.completed_at <> None in
    (* as in World.migrate_and_run: an unfinished migration that neither
       the transport nor an engine abort explains is a bug *)
    if (not completed) && give_ups = 0 && report.Report.outcome = Report.Completed
    then problem "%s never completed and no network failure explains it" name;
    let bad_pages =
      match relocated with Some proc -> verify_pages case.spec proc | None -> 0
    in
    if bad_pages > 0 then problem "%s: %d corrupted pages" name bad_pages;
    let entries = engine_entries w in
    if entries <> 0 then
      problem "%s: %d engine table entries left at quiescence" name entries;
    Counters.addi c "core.engine_table_entries" entries;
    Counters.addi c "core.precopy_rounds" report.Report.precopy_rounds;
    Counters.addi c "core.precopy_bytes" report.Report.precopy_bytes;
    collect_world c w ~sim_end;
    exec_waits :=
      Stats.merge !exec_waits
        (stats_of_hosts w (fun h -> QS.wait_stats (Host.exec_cpu h)));
    disk_waits :=
      Stats.merge !disk_waits
        (stats_of_hosts w (fun h -> QS.wait_stats (Host.disk_server h)));
    let events = Engine.events_executed w.World.engine in
    let mon = w.World.monitor in
    let bytes cat = Monitor.bytes_of mon cat in
    Printf.bprintf digest "%s events=%d bytes=%d,%d,%d,%d,%d down=%h e2e=%h %s\n"
      name events
      (bytes Accent_ipc.Message.Control)
      (bytes Accent_ipc.Message.Bulk)
      (bytes Accent_ipc.Message.Fault)
      (bytes Accent_ipc.Message.Retransmit)
      (bytes Accent_ipc.Message.Ack)
      (Report.downtime_seconds report)
      (Report.end_to_end_seconds report)
      (Report.outcome_name report.Report.outcome);
    (match (spans, p.stamps) with
    | Some sp, Some table ->
        Hashtbl.iter
          (fun _ s ->
            incr tid;
            record_spans sp ~tid:!tid ~span_ms ~span_words s)
          table
    | _ -> ());
    {
      report;
      events;
      wire = Monitor.bytes_total mon;
      failed =
        (not completed) || give_ups > 0
        || report.Report.outcome <> Report.Completed
        || bad_pages > 0;
    }
  in
  let results = List.map run_one cases in
  let wall_s = !wall_s and words = !words in
  let n = List.length results in
  let per_mig f = List.map (fun r -> f r.report) results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let events = sum (fun r -> r.events) in
  let downtimes = per_mig (fun r -> Report.downtime_seconds r *. 1e3) in
  let tail_pct, tail =
    match tail_percentile n with
    | Some p -> (p, Stats.percentile_of downtimes p)
    | None -> (100., Stats.max_of downtimes)
  in
  let summary =
    {
      events;
      migrations = n;
      attempted = n;
      failed = sum (fun r -> Bool.to_int r.failed);
      downtime_ms_p50 = Stats.percentile_of downtimes 50.;
      downtime_ms_tail = tail;
      tail_pct;
      downtime_n = n;
      turnaround_s_mean = mean (per_mig Report.end_to_end_seconds);
      wire_bytes = sum (fun r -> r.wire);
      digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    }
  in
  let per_op v = ratio v (float_of_int n) in
  let set = Counters.set c and get = Counters.get c in
  Counters.addi c "sim.events" events;
  set "sim.events_per_op" (per_op (float_of_int events));
  set "sim.host_ns_per_event" (ratio (wall_s *. 1e9) (float_of_int events));
  set "kernel.exec_cpu_wait_ms_p50" (Stats.percentile !exec_waits 50.);
  set "kernel.disk_wait_ms_p50" (Stats.percentile !disk_waits 50.);
  set "kernel.excise_s" (mean (per_mig Report.excise_seconds));
  set "kernel.insert_s" (mean (per_mig Report.insert_seconds));
  set "core.transfer_s" (mean (per_mig Report.transfer_seconds));
  set "core.prefetch_hit_ratio"
    (ratio
       (float_of_int (sum (fun r -> r.report.Report.prefetch_hits)))
       (float_of_int (sum (fun r -> r.report.Report.prefetch_extra))));
  set "core.host_ms_per_migration" (per_op (wall_s *. 1e3));
  set "core.words_per_migration" (per_op words);
  set "workloads.build_host_ms" (per_op (get "workloads.build_host_ms"));
  set "workloads.build_words" (per_op (get "workloads.build_words"));
  set "net.link_utilization" (ratio (get "net.link_busy_s") (get "sim.sim_s"));
  set "net.goodput_ratio" (ratio (get "net.goodput_bytes") (get "net.wire_bytes"));
  Hashtbl.iter (fun nm l -> set (nm ^ ".host_ms") (mean l)) span_ms;
  Hashtbl.iter (fun nm l -> set (nm ^ ".words") (mean l)) span_words;
  {
    setups = !setups;
    wall_s;
    norm_s = !norm_s;
    words;
    summary;
    counters = c;
    problems = List.rev !problems;
  }

(* --- the four workloads -------------------------------------------------- *)

(* [copies] distinct programs per strategy, each in its own world. *)
let trial_cases ~seed ~copies ?fault_plan strategies =
  List.concat_map
    (fun i ->
      List.map
        (fun strategy ->
          {
            strategy;
            spec = big_spec ~seed ~i;
            fault_plan;
            world_seed = Int64.of_int ((seed * 1_000) + i);
          })
        strategies)
    (List.init copies Fun.id)

let workloads ~speed seed =
  let churn name why config policy =
    {
      name;
      why;
      iterate =
        churn_iteration ~speed ~config ~policy:(policy ())
          ~contract:(name = "churn-exec" && seed = dev_seed);
      extra_traced = Some (churn_static_diff ~speed ~config);
    }
  in
  let trial name why cases =
    { name; why; iterate = trial_iteration ~speed ~cases; extra_traced = None }
  in
  [
    churn "churn-exec" "~1M events and 64 migrations: the simulator core"
      (churn_exec_config seed) Placement_policy.threshold;
    churn "churn-migrate" "~0.47M events and ~3.5k migrations: the migration path"
      (churn_migrate_config seed) (fun () -> Placement_policy.destination_swap ());
    trial "bigspace-lazy" "lazy strategies over 65,536-page spaces"
      (trial_cases ~seed ~copies:16
         [
           Strategy.pure_iou ~prefetch:1 ();
           Strategy.resident_set ();
           Strategy.working_set ();
           Strategy.hybrid ();
         ]);
    trial "lossy-bulk" "copy and pre-copy over a 1%-loss link"
      (trial_cases ~seed ~copies:2
         ~fault_plan:(Accent_net.Fault_plan.iid 0.01)
         [ Strategy.pure_copy; Strategy.pre_copy () ]);
  ]

(* --- run conditions ------------------------------------------------------ *)

let conditions ~args_json =
  let g = Gc.get () in
  let gc =
    [
      ("minor_heap_size", g.Gc.minor_heap_size);
      ("space_overhead", g.Gc.space_overhead);
      ("max_overhead", g.Gc.max_overhead);
      ("stack_limit", g.Gc.stack_limit);
      ("allocation_policy", g.Gc.allocation_policy);
      ("custom_major_ratio", g.Gc.custom_major_ratio);
      ("custom_minor_ratio", g.Gc.custom_minor_ratio);
    ]
  in
  Bjson.Obj
    ([
       ("build_profile", Bjson.String Build_info.profile);
       ("ocaml_version", Bjson.String Sys.ocaml_version);
       ("nproc", Bjson.Int (Domain.recommended_domain_count ()));
       ("gc", Bjson.Obj (List.map (fun (k, v) -> (k, Bjson.Int v)) gc));
       ( "OCAMLRUNPARAM",
         match Sys.getenv_opt "OCAMLRUNPARAM" with
         | Some s -> Bjson.String s
         | None -> Bjson.Null );
     ]
    @ args_json)

(* --- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       --trace-out PATH [--commit SHA] [--source-digest HEX]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec flag name = function
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> flag name rest
    | [] -> None
  in
  let req name = match flag name args with Some v -> v | None -> usage () in
  let workload = req "--workload" in
  let seed = int_of_string (req "--seed") in
  let seconds = float_of_string (req "--seconds") in
  let traced = req "--trace" = "1" in
  let trace_out = req "--trace-out" in
  let opt name = Option.value (flag name args) ~default:"unknown" in
  let speed = Ref_speed.start () in
  let w =
    match List.find_opt (fun w -> w.name = workload) (workloads ~speed seed) with
    | Some w -> w
    | None ->
        Printf.eprintf "migbench: unknown workload %S\n" workload;
        usage ()
  in
  let cond =
    conditions
      ~args_json:
        [
          ("workload", Bjson.String workload);
          ("seed", Bjson.Int seed);
          ( "seed_kind",
            Bjson.String
              (if seed = dev_seed then "development"
               else if seed = heldout_seed then "held-out"
               else "other") );
          ("seconds", Bjson.Float seconds);
          ("trace", Bjson.Bool traced);
          ("commit", Bjson.String (opt "--commit"));
          ("source_digest", Bjson.String (opt "--source-digest"));
        ]
  in
  print_endline (Bjson.to_string (Bjson.Obj [ ("conditions", cond) ]));
  let problems = ref [] in
  let check_same (a : iteration) (b : iteration) =
    if a.summary.events <> b.summary.events || a.summary.digest <> b.summary.digest
    then
      problems :=
        Printf.sprintf "repeat diverged: %d events (digest %s) vs %d (%s)"
          a.summary.events a.summary.digest b.summary.events b.summary.digest
        :: !problems
  in
  let finish ~first ~metrics =
    let s = first.summary in
    let problems = List.rev !problems @ first.problems in
    List.iter (fun p -> Printf.eprintf "migbench: CHECK FAILED: %s\n" p) problems;
    let correct = problems = [] in
    print_endline
      (Bjson.to_string
         (Bjson.Obj
            [
              ( "digest",
                Bjson.Obj
                  [
                    ("events", Bjson.Int s.events);
                    ("migrations", Bjson.Int s.migrations);
                    ("wire_bytes", Bjson.Int s.wire_bytes);
                    ("downtime_samples", Bjson.Int s.downtime_n);
                    ("downtime_tail_percentile", Bjson.Float s.tail_pct);
                    ("md5", Bjson.String s.digest);
                  ] );
            ]));
    print_endline
      (Bjson.to_string
         (Bjson.Obj
            [
              ("correct", Bjson.Bool correct);
              ("attempted", Bjson.Int s.attempted);
              ("failed", Bjson.Int s.failed);
              ( "metrics",
                Bjson.Obj
                  (List.map
                     (fun (name, unit, value) ->
                       (name, Bjson.Obj [ ("value", Bjson.Float value); ("unit", Bjson.String unit) ]))
                     metrics) );
            ]));
    exit (if correct then 0 else 1)
  in
  if not traced then begin
    let t_start = now () in
    (* The first repeat fills process-wide caches (such as the page
       digest memo) and is left out of the host-side medians. *)
    let first = w.iterate None in
    (* Repeat while another repeat, as long as the last one, still ends
       within --seconds; at least two timed repeats in any case. *)
    let rest = ref [] and last = ref (now () -. t_start) in
    while List.length !rest < 2 || now () -. t_start +. !last <= seconds do
      let t0 = now () in
      let it = w.iterate None in
      check_same first it;
      rest := it :: !rest;
      last := now () -. t0
    done;
    let timed = !rest in
    rest := [];
    let iterations = 1 + List.length timed in
    let wall = median (List.map (fun it -> it.wall_s) timed) in
    let norm = median (List.map (fun it -> it.norm_s) timed) in
    let words = median (List.map (fun it -> it.words) timed) in
    let setup_s = median (List.concat_map (fun it -> it.setups) timed) in
    let s = first.summary in
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    (* only [first] stays reachable from here, so live words do not count
       how many repeats fitted in the run *)
    Gc.full_major ();
    let live_words = (Gc.stat ()).Gc.live_words in
    let values =
      [
        ("host_wall_norm_s", norm);
        ("sim_events_per_norm_s", ratio (float_of_int s.events) norm);
        ("minor_words_per_event", ratio words (float_of_int s.events));
        ( "peak_heap_mb",
          float_of_int top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6 );
        ("live_words_after", float_of_int live_words);
        ("setup_s", setup_s);
        ("downtime_ms_p50", s.downtime_ms_p50);
        ("downtime_ms_tail", s.downtime_ms_tail);
        ("turnaround_s_mean", s.turnaround_s_mean);
        ( "wire_bytes_per_migration",
          ratio (float_of_int s.wire_bytes) (float_of_int s.migrations) );
        ( "completed_fraction",
          1. -. ratio (float_of_int s.failed) (float_of_int s.attempted) );
      ]
    in
    Printf.printf
      "migbench %s seed %d (%s): %d iterations, %d events, %d migrations\n"
      w.name seed w.why iterations s.events s.migrations;
    let metrics =
      List.map
        (fun (name, unit, better) ->
          let v = List.assoc name values in
          Printf.printf "  %-26s %18.6g %-6s (%s is better)\n" name v unit better;
          (name, unit, v))
        end_to_end
    in
    Printf.printf "  downtime tail is p%.2f of %d samples\n" s.tail_pct s.downtime_n;
    Printf.printf "  unscaled host_wall_s %.6g s (host speed reference scaled it by %.3f)\n"
      wall (ratio norm wall);
    finish ~first ~metrics
  end
  else begin
    (* the first pass warms the heap, so the overhead compares warm runs *)
    let warm = w.iterate None in
    let untraced = w.iterate None in
    check_same warm untraced;
    let spans = Spans.create () in
    let traced_it = w.iterate (Some spans) in
    check_same untraced traced_it;
    let c = untraced.counters in
    (* spans exist only in the traced run *)
    Hashtbl.iter
      (fun k v -> if String.starts_with ~prefix:"span." k then Counters.set c k v)
      traced_it.counters;
    Counters.set c "trace.overhead_s" (traced_it.norm_s -. untraced.norm_s);
    Option.iter (fun f -> f untraced c) w.extra_traced;
    Spans.write spans ~path:trace_out ~metadata:cond;
    let missing = ref [] in
    let metrics =
      List.map
        (fun (name, unit) ->
          if not (Hashtbl.mem c name) then missing := name :: !missing;
          let v = Counters.get c name in
          Printf.printf "  %-30s %18.6g %s\n" name v unit;
          (name, unit, v))
        per_layer
    in
    Printf.printf
      "migbench %s seed %d: traced %.3f s vs untraced %.3f s; spans in %s\n"
      w.name seed traced_it.wall_s untraced.wall_s trace_out;
    print_endline
      (Bjson.to_string
         (Bjson.Obj
            [
              ( "not_supplied",
                Bjson.List (List.rev_map (fun s -> Bjson.String s) !missing) );
            ]));
    finish ~first:untraced ~metrics
  end
