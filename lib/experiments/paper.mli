(** The paper's published numbers, embedded for side-by-side comparison.

    Only values printed in the paper are recorded; figures 4-1..4-4 were
    charts without readable absolute values, so for them we compare against
    the qualitative anchors stated in the text (§4.3.3, §4.4). *)

type row_4_5 = {
  name : string;
  iou_s : float;
  rs_s : float;
  copy_s : float;
}

val table_4_4 : (string * float * float * float) list
(** name, AMap s, RIMAS s, Overall s. *)

val table_4_5 : row_4_5 list

val byte_savings_pct : float
(** 58.2: mean byte-traffic reduction, IOU vs copy, no prefetch. *)

val message_cost_savings_pct : float
(** 47.8: mean message-handling reduction, IOU vs copy, no prefetch. *)

val minprog_iou_slowdown : float
(** 44: Minprog executes ~44x slower remotely under pure IOU. *)

val chess_iou_penalty_pct : float
(** ~3: Chess runs only about 3% longer under IOU. *)

val pasmac_hit_ratio : float
(** 0.78 across all prefetch values. *)
