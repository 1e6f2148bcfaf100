(** The recency queue behind both LRUs — [Phys_mem]'s frames and
    [Content_store]'s digests: a FIFO of (stamp, key) int pairs whose
    head is always the least recently used live key.

    Every push draws its stamp from the queue's own counter, which only
    grows, so entries sit in stamp order and the oldest live entry is
    the first one still valid — no heap is needed.  Validity is the
    caller's: it records each live key's current stamp in its own
    state ['s], and [stamp_of s key] reads it back.  An entry is live
    iff its stamp equals [stamp_of s key]; re-stamping a key or
    dropping it leaves its old entry behind, stale, with nothing to
    cancel.  Stale entries are dropped when they reach the head, and
    squeezed out in place, order kept, when they outnumber the live
    ones at 64 entries or more — so the queue never holds more than
    [max 63 (2 * live)] entries.

    Every operation is O(1) amortised and allocates nothing once the
    queue has grown to its working size. *)

type 's t

val create : stamp_of:('s -> int -> int) -> 's t
(** [stamp_of s key] is the stamp the caller last recorded for [key],
    or any value no entry carries (stamps are positive; [-1] will do)
    once [key] is gone. *)

val push : 's t -> 's -> int -> int
(** Enqueue a key that has no live entry; returns its stamp, larger
    than every stamp before, for the caller to record. *)

val restamp : 's t -> 's -> int -> int
(** Enqueue a fresh stamp for a key that has a live entry (a recency
    bump); the caller records it, and the old entry goes stale. *)

val kill : 's t -> 's -> unit
(** Account for a live key the caller has dropped — call it after its
    recorded stamp has stopped matching. *)

val pop : 's t -> 's -> int
(** Remove the oldest live entry and return its key, which the caller
    must then drop or {!push} afresh.
    @raise Invalid_argument when no entry is live. *)

val oldest : 's t -> 's -> int option
(** The key {!pop} would return, without removing it. *)

val live : 's t -> int

val physical_size : 's t -> int
(** Entries held, live or stale — what compaction bounds. *)
