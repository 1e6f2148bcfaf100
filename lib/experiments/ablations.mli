(** Ablations of the design choices DESIGN.md §7 calls out.

    Each returns structured rows plus a rendered table so the bench harness
    can print them and the tests can assert the directions:

    - {b bandwidth}: does the headline copy/IOU gap survive faster
      networks?  (§6 claims "any distributed system in the same class can
      expect similar results" — so what defines the class?)
    - {b caching}: switch off the NetMsgServer's §2.4 IOU caching and
      watch pure-IOU degenerate into a physical copy.
    - {b backer load}: §2.3 rates ImagMem "distantly accessible ... the
      load on the machines involved" — sweep the backing process's service
      time and watch remote execution stretch.
    - {b memory pressure}: shrink destination physical memory; pure-copy
      insertion starts thrashing the paging disk while IOU, which only
      materialises what is touched, barely notices.
    - {b strategy face-off}: pure-copy vs pure-IOU vs resident-set vs the
      pre-copy baseline on downtime, bytes, and end-to-end time. *)

type bandwidth_row = {
  speedup_factor : float;  (** network + protocol byte costs divided by *)
  copy_s : float;
  iou_s : float;
  ratio : float;
  iou_end_to_end_s : float;
  copy_end_to_end_s : float;
}

val bandwidth_sweep :
  ?spec:Accent_workloads.Spec.t -> ?factors:float list -> unit ->
  bandwidth_row list

val render_bandwidth : bandwidth_row list -> string

type caching_row = {
  caching : bool;
  transfer_s : float;
  bulk_bytes : int;
  fault_bytes : int;
}

val caching_ablation : ?spec:Accent_workloads.Spec.t -> unit -> caching_row list
val render_caching : caching_row list -> string

type backer_row = {
  lookup_ms : float;
  remote_exec_s : float;
  per_fault_ms : float;
}

val backer_load_sweep :
  ?spec:Accent_workloads.Spec.t -> ?lookups:float list -> unit ->
  backer_row list

val render_backer : backer_row list -> string

type pressure_row = {
  frames : int;
  copy_exec_s : float;
  copy_disk_faults : int;
  iou_exec_s : float;
  iou_disk_faults : int;
}

val memory_pressure_sweep :
  ?spec:Accent_workloads.Spec.t -> ?frame_counts:int list -> unit ->
  pressure_row list

val render_pressure : pressure_row list -> string

type strategy_row = {
  strategy : string;
  downtime_s : float;
  total_bytes : int;
  end_to_end_s : float;
  message_s : float;
}

val strategy_face_off :
  ?spec:Accent_workloads.Spec.t -> ?write_fraction:float -> unit ->
  strategy_row list

val render_face_off : strategy_row list -> string

type ws_row = {
  ws_strategy : string;
  shipped_bytes : int;  (** shipped physically at migration time *)
  demand_faults : int;  (** fetched afterwards *)
  useful_fraction : float;
      (** of the physically-shipped pages, the share the process went on
          to touch — the "did it pay its way" metric of §4.3.4 *)
  ws_end_to_end_s : float;
}

val ws_vs_rs :
  ?spec:Accent_workloads.Spec.t -> ?migrate_after_ms:float -> unit ->
  ws_row list
(** Live-migrate the process part-way through its run under resident-set
    shipment, working-set shipment (two windows) and pure IOU, and compare
    how much of the eagerly-shipped memory was actually wanted.  §4.2.2
    frames the resident set as a working-set approximation; this measures
    how much better the real estimator predicts. *)

type window_row = {
  window : int;
  win_copy_s : float;
  win_iou_s : float;
  win_fault_ms : float;  (** per-fault latency under this window *)
}

val flow_window_sweep :
  ?spec:Accent_workloads.Spec.t -> ?windows:int list -> unit -> window_row list
(** What if the NetMsgServer pipelined instead of stop-and-wait?  Bulk
    transfers speed up with the window while the single-packet fault
    exchange is indifferent — the modernisation that erodes (but does not
    erase) the paper's headline gap.  Theimer's pre-copy measurements blamed
    exactly this kind of aggressive streaming for buffer overruns. *)

val run_all : unit -> unit
(** Print every ablation (used by the bench harness), including the
    rendered ws-vs-rs and flow-window rows above and the adaptive-prefetch
    table, which has no other entry point. *)
