open Accent_sim
open Accent_mem
open Accent_ipc
open Accent_kernel

type context = {
  core : Context.core;
  prefetch : int;
  report : Report.t;
  on_complete : (Proc.t -> Report.t -> unit) option;
  on_restart : (Proc.t -> unit) option;
}

type Message.payload +=
  | Mig_core of context
  | Mig_rimas of { proc_id : int }
  | Mig_pages of { proc_id : int; round : int; src_port : Port.id }
  | Mig_ack of { proc_id : int; round : int }
  | Mig_final of context

(* --- plans ---------------------------------------------------------------- *)

type rounds = { max_rounds : int; threshold_pages : int }

type first_push =
  | Push_real_ranges  (** every Real range, whole *)
  | Push_window of float  (** pages referenced within the window (ms) *)

type data =
  | Everything
  | Resident  (** pages resident at excision *)
  | Window of float  (** pages referenced within the window (ms) *)
  | Dirty_and_unsent
  | Dirty_only

type rest =
  | Nms_ious  (** NoIOUs clear: the NetMsgServers cache the data *)
  | Backed_ious  (** banked on the manager's backing server *)
  | Nothing

type plan = {
  rounds : rounds option;  (** [None]: the two-message Core/RIMAS shape *)
  first_push : first_push;  (** read only when rounds run *)
  data : data;
  rest : rest;
      (** for a push plan, where the pages no round pushed go: as Data
          with nothing else to cover them (dirty+unsent), as banked IOUs
          otherwise (dirty only) *)
}

let plan_of_strategy (strategy : Strategy.t) =
  let two_message data rest =
    { rounds = None; first_push = Push_real_ranges; data; rest }
  in
  match strategy.Strategy.transfer with
  | Strategy.Pure_copy -> two_message Everything Nothing
  | Strategy.Pure_iou -> two_message Everything Nms_ious
  | Strategy.Resident_set -> two_message Resident Backed_ious
  | Strategy.Working_set { window_ms } ->
      two_message (Window window_ms) Backed_ious
  | Strategy.Pre_copy { max_rounds; threshold_pages } ->
      {
        rounds = Some { max_rounds; threshold_pages };
        first_push = Push_real_ranges;
        data = Dirty_and_unsent;
        rest = Nothing;
      }
  | Strategy.Hybrid { max_rounds; threshold_pages; window_ms } ->
      {
        rounds = Some { max_rounds; threshold_pages };
        first_push = Push_window window_ms;
        data = Dirty_only;
        rest = Backed_ious;
      }

(* --- per-manager state ---------------------------------------------------- *)

(* The two zero-round context messages may arrive in either order. *)
type partial = {
  mutable arrived_core : context option;
  mutable arrived_rimas : Memory_object.t option;
}

(* Source side of an in-progress push migration. *)
type outbound = {
  proc : Proc.t;
  dest : Port.id;
  rounds : rounds;
  plan : plan;
  context : Context.core -> context;  (** the final message's, once frozen *)
  sent : Image_wire.Sent.t;  (** pages ever pushed; owned by the pool *)
}

type t = {
  host : Host.t;
  port : Port.id;
  backing : Backing_server.t;
  bus : Mig_event.bus;
  dedup : Dedup.t;
  insert : context -> Memory_object.t -> unit;
  pending : (int, partial) Hashtbl.t;  (** destination, zero-round *)
  outbound : (int, outbound) Hashtbl.t;  (** source, push *)
  staged : (int, Image_wire.staged) Hashtbl.t;
      (** destination, push: pages staged by rounds, keyed by proc id *)
  pool : Image_wire.Sent_pool.t;
  mutable received : int;
}

let received t = t.received

let debug_stats t =
  [
    ("pending", Hashtbl.length t.pending);
    ("outbound", Hashtbl.length t.outbound);
    ("staged", Hashtbl.length t.staged);
  ]

let emit t ~proc_id kind =
  Mig_event.publish t.bus
    { Mig_event.at = Engine.now (Host.engine t.host); proc_id; kind }

let abort_migration t ~proc_id reason =
  Logs.warn (fun m ->
      m "MigrationManager: aborting migration of proc %d (%s)" proc_id reason);
  emit t ~proc_id (Mig_event.Engine_abort { reason })

(* Freeze first: a live process may have a fault in flight, which must
   retire before ExciseProcess can dismantle the space. *)
let freeze_until_quiescent t proc ~k =
  Proc_runner.interrupt proc;
  let engine = Host.engine t.host in
  let rec once_quiescent () =
    if proc.Proc.in_flight then
      ignore (Engine.schedule engine ~delay:(Time.ms 2.) once_quiescent)
    else k ()
  in
  once_quiescent ()

(* The live process's pages referenced within the window that actually
   carry data: only those can be shipped physically. *)
let shippable_ws_pages t proc ~window_ms =
  Working_set.pages_within proc.Proc.working_set
    ~time:(Engine.now (Host.engine t.host))
    ~window:(Time.ms window_ms)
  |> List.filter (fun page ->
         match Address_space.presence_of_page (Proc.space_exn proc) page with
         | Address_space.Resident _ | Address_space.Paged_out _ -> true
         | Address_space.Zero_pending | Address_space.Imaginary_pending _
         | Address_space.Invalid ->
             false)

(* --- source side: zero rounds, the Core/RIMAS pair ------------------------ *)

let start_two_message t plan ~proc ~dest ~prefetch ~report ~on_complete
    ~on_restart =
  freeze_until_quiescent t proc ~k:(fun () ->
      (* the working set must be read before excision dismantles the space *)
      let ws_pages =
        match plan.data with
        | Window window_ms -> shippable_ws_pages t proc ~window_ms
        | Everything | Resident | Dirty_and_unsent | Dirty_only -> []
      in
      Excise.excise t.host proc ~k:(fun excised ->
          let core = excised.Excise.core in
          let proc_id = core.Context.proc_id in
          emit t ~proc_id (Mig_event.Excised excised.Excise.timings);
          let split keep = Image_wire.split_rimas t.backing excised ~keep in
          (* with no round run, nothing was sent: dirty+unsent is every page *)
          let rimas =
            match plan.data with
            | Everything | Dirty_and_unsent -> excised.Excise.rimas
            | Resident -> split excised.Excise.resident
            | Window _ -> split ws_pages
            | Dirty_only -> split excised.Excise.image.Proc_image.dirty
          in
          (* RIMAS first: under the lazy strategies it is one small
             fragment and the relocated process cannot restart until it
             lands, so it should not queue behind the Core's AMap
             fragments *)
          let ids = Host.ids t.host in
          let core_msg =
            Message.make ~ids ~dest
              ~inline_bytes:(Context.core_wire_bytes (Host.costs t.host) core)
              ~rights:core.Context.port_rights
              (Mig_core { core; prefetch; report; on_complete; on_restart })
          in
          Dedup.send t.dedup ~dest ~proc_id ~memory:rimas ~build:(fun memory ->
              Message.make ~ids ~dest ~inline_bytes:64 ~memory
                ~no_ious:(plan.rest <> Nms_ious) ~category:Message.Bulk
                (Mig_rimas { proc_id }));
          Kernel_ipc.send (Host.kernel t.host) core_msg))

(* --- source side: push rounds, then one final message -------------------- *)

let send_round t (o : outbound) ~round ~chunks =
  let proc_id = o.proc.Proc.id in
  emit t ~proc_id
    (Mig_event.Precopy_round
       { round; bytes = Memory_object.data_bytes chunks });
  Dedup.send t.dedup ~dest:o.dest ~proc_id ~memory:chunks ~build:(fun memory ->
      Message.make ~ids:(Host.ids t.host) ~dest:o.dest ~inline_bytes:64 ~memory
        ~no_ious:true ~category:Message.Bulk
        (Mig_pages { proc_id; round; src_port = t.port }))

(* Read the pages from the live space, record them as sent, push them. *)
let push_pages t (o : outbound) ~round pages =
  match Image_wire.vaddr_data_chunks (Proc.space_exn o.proc) pages with
  | exception Image_wire.Abort reason ->
      abort_migration t ~proc_id:o.proc.Proc.id reason
  | chunks ->
      List.iter (Image_wire.Sent.mark_page o.sent) pages;
      send_round t o ~round ~chunks

(* Push every Real range whole, as shared views, recording the coverage
   as O(ranges) bulk runs rather than one sent mark per page. *)
let push_real_ranges t (o : outbound) ~round =
  match Image_wire.real_range_chunks (Proc.space_exn o.proc) with
  | exception Image_wire.Abort reason ->
      abort_migration t ~proc_id:o.proc.Proc.id reason
  | chunks ->
      List.iter
        (fun c ->
          Image_wire.Sent.mark_run o.sent
            ~first:(Page.index_of_addr c.Memory_object.range.Vaddr.lo)
            ~last:(Page.index_of_addr (c.Memory_object.range.Vaddr.hi - 1)))
        chunks;
      send_round t o ~round ~chunks

(* The frozen Data, plus the IOUs for what no round pushed when the plan
   banks it — derived from the captured image, never the dying space.
   May raise {!Image_wire.Abort}. *)
let frozen_chunks t (o : outbound) image ~written =
  match o.plan.rest with
  | Backed_ious ->
      let dirty =
        Image_wire.image_data_chunks image
          ~missing:"push: page vanished mid-round" written
      in
      List.iter (Image_wire.Sent.mark_page o.sent) written;
      (dirty, Image_wire.cold_iou_chunks t.backing image ~sent:o.sent)
  | Nothing | Nms_ious ->
      (Image_wire.dirty_and_unsent_chunks image ~sent:o.sent ~written, [])

(* Freeze, capture the process image, derive the final message from it,
   dissolve the source incarnation, ship.  An abort while deriving
   leaves the process intact. *)
let freeze t (o : outbound) =
  let proc_id = o.proc.Proc.id in
  freeze_until_quiescent t o.proc ~k:(fun () ->
      let written = Proc.drain_written_log o.proc in
      let excised = Excise.capture t.host o.proc in
      let image = excised.Excise.image in
      match frozen_chunks t o image ~written with
      | exception Image_wire.Abort reason -> abort_migration t ~proc_id reason
      | data, ious ->
          emit t ~proc_id
            (Mig_event.Frozen
               { residual_bytes = Memory_object.data_bytes data });
          Hashtbl.remove t.outbound proc_id;
          Image_wire.Sent_pool.give t.pool o.sent;
          Excise.dissolve t.host o.proc excised ~k:(fun excised ->
              emit t ~proc_id (Mig_event.Excised excised.Excise.timings);
              let core = excised.Excise.core in
              let memory =
                List.sort
                  (fun a b ->
                    Int.compare a.Memory_object.range.Vaddr.lo
                      b.Memory_object.range.Vaddr.lo)
                  (data @ ious @ Image_wire.iou_chunks_of_image image)
              in
              Memory_object.validate memory;
              Dedup.send t.dedup ~dest:o.dest ~proc_id ~memory
                ~build:(fun memory ->
                  Message.make ~ids:(Host.ids t.host) ~dest:o.dest
                    ~inline_bytes:
                      (Context.core_wire_bytes (Host.costs t.host) core)
                    ~rights:core.Context.port_rights ~memory
                    ~no_ious:(o.plan.rest <> Nms_ious) ~category:Message.Bulk
                    (Mig_final (o.context core)))))

(* The round-pacing decision: freeze when the round budget is spent or
   the dirty log is small enough, else push the drained log. *)
let handle_ack t ~proc_id ~round =
  match Hashtbl.find_opt t.outbound proc_id with
  | None -> Logs.warn (fun m -> m "MigrationManager: stray push ack")
  | Some o ->
      let dirty = Hashtbl.length o.proc.Proc.written_log in
      if round >= o.rounds.max_rounds || dirty <= o.rounds.threshold_pages
      then freeze t o
      else push_pages t o ~round:(round + 1) (Proc.drain_written_log o.proc)

let start_push t plan rounds ~proc ~dest ~prefetch ~report ~on_complete
    ~on_restart =
  (* the process keeps executing at the source while rounds proceed *)
  let o =
    {
      proc;
      dest;
      rounds;
      plan;
      context =
        (fun core -> { core; prefetch; report; on_complete; on_restart });
      sent = Image_wire.Sent_pool.take t.pool;
    }
  in
  Hashtbl.replace t.outbound proc.Proc.id o;
  match plan.first_push with
  | Push_real_ranges -> push_real_ranges t o ~round:1
  | Push_window window_ms ->
      (* writes before the migration are plain source execution: the
         pages they touched ship with current values either in the
         window push or as cold IOUs, so dirty tracking restarts at the
         rounds' epoch.  A whole-range push keeps the log, and its round
         2 re-sends those pages. *)
      ignore (Proc.drain_written_log proc);
      push_pages t o ~round:1 (shippable_ws_pages t proc ~window_ms)

let start t ~proc ~dest ~strategy ~report ~on_complete ~on_restart =
  let plan = plan_of_strategy strategy in
  let prefetch = strategy.Strategy.prefetch in
  match plan.rounds with
  | None ->
      start_two_message t plan ~proc ~dest ~prefetch ~report ~on_complete
        ~on_restart
  | Some rounds ->
      start_push t plan rounds ~proc ~dest ~prefetch ~report ~on_complete
        ~on_restart

(* --- destination side ----------------------------------------------------- *)

let partial_for t proc_id =
  match Hashtbl.find_opt t.pending proc_id with
  | Some p -> p
  | None ->
      let p = { arrived_core = None; arrived_rimas = None } in
      Hashtbl.replace t.pending proc_id p;
      p

(* Once both context messages are in hand, insert. *)
let maybe_insert t proc_id partial =
  match (partial.arrived_core, partial.arrived_rimas) with
  | Some context, Some rimas ->
      Hashtbl.remove t.pending proc_id;
      t.insert context rimas
  | _ -> ()

let stage t proc_id memory =
  Image_wire.stage_chunks
    (Option.value (Hashtbl.find_opt t.staged proc_id)
       ~default:Image_wire.no_staged)
    memory

let handle_pages t ~proc_id ~round ~src_port memory =
  match Dedup.resolve t.dedup ~proc_id memory with
  | exception Dedup.Unresolvable reason -> abort_migration t ~proc_id reason
  | memory ->
      Hashtbl.replace t.staged proc_id (stage t proc_id memory);
      Kernel_ipc.send (Host.kernel t.host)
        (Message.make ~ids:(Host.ids t.host) ~dest:src_port ~inline_bytes:32
           (Mig_ack { proc_id; round }))

(* Account Core and RIMAS delivery, stage the frozen Data, assemble the
   insertion RIMAS and insert; any failure aborts the migration and
   drops its staged pages. *)
let handle_final t (context : context) memory =
  t.received <- t.received + 1;
  let proc_id = context.core.Context.proc_id in
  emit t ~proc_id Mig_event.Core_delivered;
  (* the frozen Data is the RIMAS data this message physically carries;
     the staged rounds were accounted per round *)
  emit t ~proc_id
    (Mig_event.Rimas_delivered
       { data_bytes = Memory_object.data_bytes memory });
  let rimas =
    match Dedup.resolve t.dedup ~proc_id memory with
    | exception Dedup.Unresolvable reason -> Error reason
    | memory -> (
        let staged = stage t proc_id memory in
        let iou_chunks =
          List.filter
            (fun c ->
              match c.Memory_object.content with
              | Memory_object.Iou _ -> true
              | Memory_object.Data _ | Memory_object.Digest_refs _ -> false)
            memory
        in
        match
          Image_wire.assemble_lazy staged ~amap:context.core.Context.amap
            ~iou_chunks
        with
        | exception Image_wire.Abort reason -> Error reason
        | rimas -> Ok rimas)
  in
  Hashtbl.remove t.staged proc_id;
  match rimas with
  | Error reason -> abort_migration t ~proc_id reason
  | Ok rimas -> t.insert context rimas

let handle t msg =
  let memory () = Option.value msg.Message.memory ~default:[] in
  match msg.Message.payload with
  | Mig_core context ->
      t.received <- t.received + 1;
      let proc_id = context.core.Context.proc_id in
      emit t ~proc_id Mig_event.Core_delivered;
      let partial = partial_for t proc_id in
      partial.arrived_core <- Some context;
      maybe_insert t proc_id partial;
      true
  | Mig_rimas { proc_id } ->
      let rimas = memory () in
      (* wire accounting first: data_bytes of the pruned object *)
      emit t ~proc_id
        (Mig_event.Rimas_delivered
           { data_bytes = Memory_object.data_bytes rimas });
      (match Dedup.resolve t.dedup ~proc_id rimas with
      | rimas ->
          let partial = partial_for t proc_id in
          partial.arrived_rimas <- Some rimas;
          maybe_insert t proc_id partial
      | exception Dedup.Unresolvable reason ->
          abort_migration t ~proc_id reason);
      true
  | Mig_pages { proc_id; round; src_port } ->
      handle_pages t ~proc_id ~round ~src_port (memory ());
      true
  | Mig_ack { proc_id; round } ->
      handle_ack t ~proc_id ~round;
      true
  | Mig_final context ->
      handle_final t context (memory ());
      true
  | _ -> false

let give_up_proc = function
  | Mig_core { core; _ } | Mig_final { core; _ } -> Some core.Context.proc_id
  | Mig_rimas { proc_id; _ } | Mig_pages { proc_id; _ } -> Some proc_id
  | _ -> None

let create ~host ~port ~backing ~bus ~dedup ~insert =
  let t =
    {
      host;
      port;
      backing;
      bus;
      dedup;
      insert;
      pending = Hashtbl.create 4;
      outbound = Hashtbl.create 4;
      staged = Hashtbl.create 4;
      pool = Image_wire.Sent_pool.create ();
      received = 0;
    }
  in
  (* An abandoned migration never reaches its normal exit (the second
     context half, or the final message), which is the only one that
     clears its entries: drop them when the transport gives up on it or
     the engine itself aborts it, or every failed migration's staged
     pages stay resident forever. *)
  Mig_event.subscribe_cleanup bus (fun ev ->
      let proc_id = ev.Mig_event.proc_id in
      match ev.Mig_event.kind with
      | Mig_event.Transport_give_up | Mig_event.Engine_abort _ ->
          Hashtbl.remove t.pending proc_id;
          (match Hashtbl.find_opt t.outbound proc_id with
          | Some o -> Image_wire.Sent_pool.give t.pool o.sent
          | None -> ());
          Hashtbl.remove t.outbound proc_id;
          Hashtbl.remove t.staged proc_id
      | _ -> ());
  t
