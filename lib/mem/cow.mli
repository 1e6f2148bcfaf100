(** Copy-on-write page sharing (paper §2.1).

    Accent's IPC conceptually copies message data by value but actually maps
    pages copy-on-write between sender and receiver, deferring each physical
    512-byte copy until somebody writes.  This store implements that trick
    for in-host transfers: handles are cheap references to runs of shared
    pages; writing through a handle copies only the affected page when it is
    still shared.  Fitzgerald measured that up to 99.98% of bytes passed
    this way are never physically copied — a statistic the store exposes so
    tests can reproduce it. *)

type store
type handle

val create_store : unit -> store

val share : store -> bytes -> handle
(** Bring data into the store (one physical copy, page-granular) and return
    a handle with sole ownership. *)

val dup : store -> handle -> handle
(** A second logical copy: O(pages) reference bumps, no data copied.  This
    is what message send/receive does. *)

val length : store -> handle -> int
(** Logical length in bytes. *)

val read : store -> handle -> bytes
(** Materialise the full contents (fresh buffer). *)

val write : store -> handle -> offset:int -> bytes -> unit
(** Write through the handle.  Pages still shared with other handles are
    physically copied first; exclusive pages are written in place. *)

val release : store -> handle -> unit
(** Drop the handle; pages with no remaining references are freed. *)

val pages_of : store -> handle -> int

(** {2 Process-image export / import} *)

(** {2 Accounting} *)

val live_pages : store -> int
(** Distinct physical pages currently allocated. *)

val logical_pages : store -> int
(** Sum of pages over all live handles (≥ [live_pages]). *)

val deferred_copies : store -> int
(** Physical page copies forced by writes to shared pages so far. *)

val sharing_ratio : store -> float
(** Fraction of logically-transferred pages that never needed a physical
    copy: 1 - copies/duplicated pages; 1.0 when nothing was duplicated. *)
