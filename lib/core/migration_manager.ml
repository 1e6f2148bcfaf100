open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel

type t = {
  host : Host.t;
  port : Port.id;
  backing : Backing_server.t;
  bus : Mig_event.bus;
  dedup : Dedup.t;
  transfer : Transfer.t;
  mutable started : int;
}

let port t = t.port
let host t = t.host
let backing t = t.backing
let bus t = t.bus

let emit_on bus host ~proc_id kind =
  Mig_event.publish bus
    { Mig_event.at = Engine.now (Host.engine host); proc_id; kind }

(* --- destination lifecycle ----------------------------------------------- *)

let finish_insert bus host (c : Transfer.context) ~insert_ms proc =
  let emit = emit_on bus host in
  emit ~proc_id:proc.Proc.id (Mig_event.Inserted { insert_ms });
  proc.Proc.prefetch <- c.prefetch;
  proc.Proc.on_complete <-
    Some
      (fun p ->
        let remote_touched_pages =
          match p.Proc.space with
          | Some space -> Address_space.touched_pages space
          | None -> c.report.Report.remote_touched_pages
        in
        emit ~proc_id:p.Proc.id
          (Mig_event.Outcome
             { outcome = c.report.Report.outcome; remote_touched_pages });
        match c.on_complete with Some f -> f p c.report | None -> ());
  emit ~proc_id:proc.Proc.id Mig_event.Restarted;
  (match c.on_restart with Some f -> f proc | None -> ());
  Proc_runner.start host proc

let insert_arrival bus host (c : Transfer.context) rimas =
  let insert_ms = Insert.estimate_ms (Host.costs host) c.core rimas in
  Insert.insert host ~core:c.core ~rimas
    ~k:(finish_insert bus host c ~insert_ms)

let create ?bus host =
  let bus =
    match bus with Some bus -> bus | None -> Mig_event.create_bus ()
  in
  let port = Host.new_port host in
  let backing =
    Backing_server.create host
      ~name:(Printf.sprintf "mm-backing@%s" (Host.name host))
  in
  let dedup = Dedup.create ~host ~port ~bus in
  let transfer =
    Transfer.create ~host ~port ~backing ~bus ~dedup
      ~insert:(insert_arrival bus host)
  in
  let t = { host; port; backing; bus; dedup; transfer; started = 0 } in
  let emit = emit_on bus host in
  Kernel_ipc.bind (Host.kernel host) port (fun msg ->
      if not (Transfer.handle transfer msg || Dedup.handle dedup msg) then
        Logs.warn (fun m -> m "MigrationManager: unexpected message"));
  (* When the reliable transport abandons one of our context, round or
     digest messages, the migration it belonged to can never proceed
     normally: publish the give-up so the event fold marks the report
     Degraded/Aborted instead of waiting on a delivery that will never
     happen. *)
  Accent_net.Netmsgserver.on_transport_give_up (Host.nms host) (fun msg ->
      let payload = msg.Message.payload in
      let proc_id =
        match Transfer.give_up_proc payload with
        | None -> Dedup.give_up_proc payload
        | some -> some
      in
      Option.iter
        (fun proc_id -> emit ~proc_id Mig_event.Transport_give_up)
        proc_id);
  (* The pager cannot depend on this layer, so it exposes observation
     hooks; turn them into bus events (routing drops events for processes
     no migration is tracking). *)
  Pager.set_observer (Host.pager host)
    ~on_fault:(fun proc kind ->
      emit ~proc_id:proc.Proc.id
        (Mig_event.Fault
           (match kind with
           | `Zero -> Mig_event.Fault_zero
           | `Disk -> Mig_event.Fault_disk
           | `Imaginary -> Mig_event.Fault_imaginary)))
    ~on_prefetch:(fun proc kind ->
      emit ~proc_id:proc.Proc.id
        (Mig_event.Prefetch
           (match kind with
           | `Issued -> Mig_event.Prefetch_issued
           | `Hit -> Mig_event.Prefetch_hit)));
  t

(* --- source side ---------------------------------------------------------- *)

let migrate t ~proc ~dest ~strategy ?on_complete ?on_restart () =
  t.started <- t.started + 1;
  let report = Report.create ~proc_name:proc.Proc.name ~strategy in
  Mig_event.register t.bus ~proc_id:proc.Proc.id report;
  emit_on t.bus t.host ~proc_id:proc.Proc.id
    (Mig_event.Requested { proc_name = proc.Proc.name; strategy });
  Transfer.start t.transfer ~proc ~dest ~strategy ~report ~on_complete
    ~on_restart;
  report

let migrations_started t = t.started
let migrations_received t = Transfer.received t.transfer

let engine_stats t =
  [
    ("transfer", Transfer.debug_stats t.transfer);
    ("dedup", Dedup.debug_stats t.dedup);
  ]
