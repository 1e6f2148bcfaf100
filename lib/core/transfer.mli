(** The transfer engine: every context-transfer strategy, driven by a plan.

    Zayas's strategies (and the pre-copy and hybrid baselines beside
    them) differ in only four ways, so each {!Strategy.t} is turned into
    a private plan naming them:

    - push rounds: none, or up to [max_rounds] while the process keeps
      running, freezing early once a round leaves at most
      [threshold_pages] dirty;
    - the round-1 push set: every Real range, or the window working set;
    - the frozen Data set: everything, the resident set, the working
      set, dirty+unsent, or dirty only;
    - the rest: IOUs cached by the NetMsgServers (NoIOUs clear), IOUs
      banked on the manager's own backing server, or nothing.

    Two wire shapes follow from the first field.  Zero-round plans
    (copy, IOU, resident-set, working-set) excise the process and send
    the paper's two concurrent messages, the Core and the RIMAS in
    collapsed coordinates; they may arrive in either order (under pure
    IOU the tiny RIMAS regularly beats the Core).  Push plans (pre-copy,
    hybrid) send acknowledged rounds of vaddr-coordinate pages while the
    process runs, then freeze and send one final message carrying the
    Core, the frozen Data and any IOUs; the destination stages round
    pages and assembles the insertion RIMAS with
    {!Image_wire.assemble_lazy}.

    The engine never stamps {!Report} fields directly: it publishes
    {!Mig_event} events on the bus, which folds them into the report.
    A page value vanishing mid-round, a staged page missing at
    insertion or an unresolvable digest aborts that one migration with
    {!Mig_event.Engine_abort}; a [Transport_give_up] or [Engine_abort]
    on the bus drops the migration's table entries, so an abandoned
    migration leaks nothing. *)

type context = {
  core : Accent_kernel.Context.core;
  prefetch : int;
  report : Report.t;
  on_complete : (Accent_kernel.Proc.t -> Report.t -> unit) option;
  on_restart : (Accent_kernel.Proc.t -> unit) option;
}
(** Everything a Core-bearing message carries besides memory: what the
    destination manager needs to insert and restart the process. *)

type Accent_ipc.Message.payload +=
  | Mig_core of context  (** zero-round plans: the Core half *)
  | Mig_rimas of { proc_id : int }
        (** zero-round plans: the RIMAS half; memory object in collapsed
            coordinates *)
  | Mig_pages of {
      proc_id : int;
      round : int;
      src_port : Accent_ipc.Port.id;  (** where the acknowledgement goes *)
    }  (** push plans: one round; memory object: Data chunks, vaddr
           coordinates *)
  | Mig_ack of { proc_id : int; round : int }
  | Mig_final of context
        (** push plans: memory object: the frozen Data plus IOU chunks,
            vaddr coordinates *)

type t

val create :
  host:Accent_kernel.Host.t ->
  port:Accent_ipc.Port.id ->
  backing:Backing_server.t ->
  bus:Mig_event.bus ->
  dedup:Dedup.t ->
  insert:(context -> Accent_ipc.Memory_object.t -> unit) ->
  t
(** One per manager.  [port] is the manager's command port (where acks
    return), [backing] its backing server (resident-set, working-set and
    hybrid IOUs), [dedup] its digest-first negotiator (every page-data
    send goes through {!Dedup.send}, every arrival through
    {!Dedup.resolve}); [insert] runs InsertProcess and the restart
    lifecycle on an assembled RIMAS (collapsed coordinates). *)

val start :
  t ->
  proc:Accent_kernel.Proc.t ->
  dest:Accent_ipc.Port.id ->
  strategy:Strategy.t ->
  report:Report.t ->
  on_complete:(Accent_kernel.Proc.t -> Report.t -> unit) option ->
  on_restart:(Accent_kernel.Proc.t -> unit) option ->
  unit
(** Source side: begin migrating [proc] to the manager at [dest]. *)

val handle : t -> Accent_ipc.Message.t -> bool
(** Consume a message arriving on the manager's port; [false] means it
    is not a transfer message. *)

val give_up_proc : Accent_ipc.Message.payload -> int option
(** When the reliable transport abandons this payload, which migration
    (by proc id) can no longer proceed normally?  [None] for payloads
    whose loss is harmless (a lost ack only delays the next round
    decision). *)

val received : t -> int
(** Inbound migrations: Core or final messages that reached this side. *)

val debug_stats : t -> (string * int) list
(** Sizes of the per-manager tables — half-arrived Core/RIMAS pairs,
    in-flight push rounds, staged-page stores — for leak tests and
    diagnostics. *)
