(** The run algebra and chunk builders behind {!Transfer}'s wire messages.

    Every page set a plan names — pushed, unsent, dirty, kept, cold — is
    handled as sorted closed page runs, and every chunk carries its values
    as a shared {!Accent_mem.Page_run.t} view of the live space or the
    captured {!Accent_kernel.Proc_image.t}.  Nothing here walks the pages of
    an address space one by one, so a migration's cost follows the pages
    it moves, not the size of the space:

    - push rounds read the live space ({!vaddr_data_chunks},
      {!real_range_chunks}) and record coverage in a {!Sent} set;
    - a freeze derives the final message from the image by run
      subtraction ({!unsent_runs}, {!dirty_and_unsent_chunks},
      {!cold_iou_chunks}, {!iou_chunks_of_image});
    - a zero-round resident-set or working-set RIMAS is the excised RIMAS
      cut at the kept pages' runs ({!split_rimas});
    - the destination stages round pages ({!stage_chunks}) and assembles
      the insertion RIMAS ({!assemble_lazy}). *)

open Accent_mem
open Accent_kernel

exception Abort of string
(** A migration cannot proceed: a page value vanished mid-round, or a
    real page is neither staged nor IOU-backed at insertion.  {!Transfer}
    catches it at its protocol boundaries and aborts that one
    migration. *)

(** A migration's sent set: which pages some round has already pushed.
    Bulk pushes record closed page runs in O(1) ({!Sent.mark_run}); dirty-
    log rounds mark individual pages.  The set is only ever read by
    collapsing it into one sorted run view per freeze and subtracting it
    from the image's real ranges — never by a per-page probe over the
    address space. *)
module Sent : sig
  type t

  val create : unit -> t
  val mark_page : t -> Page.index -> unit

  val mark_run : t -> first:Page.index -> last:Page.index -> unit
  (** Record the closed page run [first, last] as pushed; no-op when
      empty. *)
end

(** Pooled scratch for the per-migration sent sets: taken at migration
    start, returned (and reset) at freeze or abort, so steady churn
    reuses a few sets instead of allocating one per migration. *)
module Sent_pool : sig
  type t

  val create : unit -> t
  val take : t -> Sent.t

  val give : t -> Sent.t -> unit
  (** Resets the set; the caller must not retain it. *)
end

(** {2 Data chunks} *)

val data_chunks :
  lookup:(Page.index -> Page.value option) ->
  missing:string ->
  Page.index list ->
  Accent_ipc.Memory_object.t
(** Coalesce the pages (sorted and deduplicated here) into consecutive
    runs and read each value through [lookup]; a [None] raises {!Abort}
    with [missing]. *)

val vaddr_data_chunks :
  Address_space.t -> Page.index list -> Accent_ipc.Memory_object.t
(** [data_chunks] over the live space — what push rounds read. *)

val image_data_chunks :
  Proc_image.t -> missing:string -> Page.index list -> Accent_ipc.Memory_object.t
(** [data_chunks] over a captured image — what the freeze reads. *)

val real_range_chunks : Address_space.t -> Accent_ipc.Memory_object.t
(** One Data chunk per Real range of the live space, each carrying the
    range's values as one shared view ({!Address_space.real_runs}) — what
    a pre-copy first round ships.  No page list, no page array, no value
    copied. *)

val unsent_runs :
  Proc_image.t -> sent:Sent.t -> (Page.index * Page.index) list
(** Closed page runs of the image's real memory that no round ever
    pushed, ascending — the run subtraction at the heart of the cold tail
    and the dirty+unsent Data set.  O(real ranges + sent marks log
    sent marks), independent of the address-space page count. *)

(** {2 IOU chunks} *)

val iou_chunks_of_image : Proc_image.t -> Accent_ipc.Memory_object.t
(** The image's imaginary runs as vaddr-coordinate IOU chunks —
    pre-existing ImagMem (e.g. on a second migration) the final message
    must carry. *)

val cold_iou_chunks :
  Backing_server.t -> Proc_image.t -> sent:Sent.t -> Accent_ipc.Memory_object.t
(** Bank every real run the rounds never pushed on the backing server
    (one adopted extent per run) and return IOU chunks for the
    destination to pull on reference — the cold tail.
    O({!unsent_runs}), never O(pages). *)

val dirty_and_unsent_chunks :
  Proc_image.t ->
  sent:Sent.t ->
  written:Page.index list ->
  Accent_ipc.Memory_object.t
(** The dirty+unsent Data set: the dirty log merged with {!unsent_runs},
    each maximal run read out of the image as one shared view.  Chunk
    boundaries are identical to coalescing the equivalent page list. *)

val split_rimas :
  Backing_server.t ->
  Excise.excised ->
  keep:Page.index list ->
  Accent_ipc.Memory_object.t
(** The excised RIMAS with every Data page not in [keep] banked on the
    backing server and replaced by IOUs; collapsed coordinates
    throughout.  Each Data chunk is cut at the kept pages' collapsed
    runs: one Data chunk (a shared view) per maximal kept run and one IOU
    chunk (one adopted extent) per maximal run between them, inside each
    excised chunk.  The cost follows the kept pages and the pieces, never
    the pages the chunks span. *)

(** {2 Destination side: staging and assembly} *)

type staged
(** A migration's staged pages, by virtual address: the Data chunks of
    its rounds and final message, a later chunk overwriting an earlier
    one where they overlap.  Staging keeps each chunk's run whole, so it
    costs O(log chunks) per chunk, never O(pages). *)

val no_staged : staged

val stage_chunks : staged -> Accent_ipc.Memory_object.t -> staged
(** Stage every Data chunk; IOU chunks are left alone. *)

val assemble_lazy :
  staged ->
  amap:Accent_mem.Amap.t ->
  iou_chunks:Accent_ipc.Memory_object.t ->
  Accent_ipc.Memory_object.t
(** The insertion RIMAS, in collapsed coordinates: maximal staged runs
    become Data chunks (a run one staged chunk covers is a view of it,
    any other run one fresh array), every gap must be covered by an IOU
    chunk (splitting on chunk boundaries), else {!Abort}.  With every
    real page staged, each Real range is one Data chunk.  The walk is
    O(staged chunks + AMap ranges); only staged pages are copied. *)
