type row_4_5 = { name : string; iou_s : float; rs_s : float; copy_s : float }

let table_4_4 =
  [
    ("Minprog", 0.37, 0.36, 0.82);
    ("Lisp-T", 2.12, 0.59, 2.79);
    ("Lisp-Del", 2.46, 0.73, 3.38);
    ("PM-Start", 0.98, 0.63, 1.67);
    ("PM-Mid", 1.01, 0.68, 1.74);
    ("PM-End", 1.4, 0.94, 2.45);
    ("Chess", 0.37, 0.43, 1.00);
  ]

let table_4_5 =
  [
    { name = "Minprog"; iou_s = 0.16; rs_s = 5.0; copy_s = 8.5 };
    { name = "Lisp-T"; iou_s = 0.16; rs_s = 25.8; copy_s = 157.0 };
    { name = "Lisp-Del"; iou_s = 0.17; rs_s = 25.8; copy_s = 168.5 };
    { name = "PM-Start"; iou_s = 0.15; rs_s = 9.0; copy_s = 30.8 };
    { name = "PM-Mid"; iou_s = 0.16; rs_s = 13.0; copy_s = 28.1 };
    { name = "PM-End"; iou_s = 0.19; rs_s = 20.5; copy_s = 31.0 };
    { name = "Chess"; iou_s = 0.21; rs_s = 7.7; copy_s = 11.7 };
  ]

let byte_savings_pct = 58.2
let message_cost_savings_pct = 47.8
let minprog_iou_slowdown = 44.
let chess_iou_penalty_pct = 3.
let pasmac_hit_ratio = 0.78
