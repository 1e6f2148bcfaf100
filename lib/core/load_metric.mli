(** Load metrics for automatic migration.

    §6 poses this as the open problem: good strategies "will involve the
    development of good load metrics which specifically take into account
    the fact that a process virtual address space may be physically
    dispersed among several computational hosts."  This module supplies
    both halves:

    - a conventional {!host_load} (runnable processes plus message-server
      queue pressure), and
    - {!dispersion}: where a process's memory actually lives right now —
      its materialised pages locally, and each imaginary segment attributed
      to the host backing its port.  A scheduler that relocates a process
      {e toward} its backing data turns remote imaginary faults into local
      IPC, which in this testbed (as in Accent) is an order of magnitude
      cheaper and puts nothing on the wire. *)

val host_load : Accent_kernel.Host.t -> float
(** Live (Running or Ready) processes plus 0.2 per message queued at the
    host CPU. *)

(** Opt-in exponential smoothing of the per-host load vector (the MOSIX
    load-vector / load-average remedy for sample noise).  The raw
    {!host_load} reacts instantly, so a one-tick queue blip can cross a
    placement policy's imbalance threshold and trigger a migration whose
    cost dwarfs the imbalance; a sampler that folds each tick through
    {!Ewma.observe} hands the policy a damped signal instead.
    {!Auto_migrator}'s [load_smoothing] switches this on. *)
module Ewma : sig
  type t

  val create : ?alpha:float -> unit -> t
  (** [alpha] ∈ (0, 1] weights the newest sample ([1.] reproduces the raw
      signal); default [0.3].  The first observation seeds the state. *)

  val alpha : t -> float

  val observe : t -> float array -> float array
  (** Fold one raw per-host sample into the smoothed state and return the
      smoothed vector (a fresh array). *)

  val observe_into : t -> float array -> unit
  (** In-place {!observe}: folds [buf] into the smoothed state and
      overwrites [buf] with the result, allocating nothing once seeded.
      The per-tick sampler path — the caller owns and reuses [buf]. *)
end

val dispersion :
  registry:Accent_net.Net_registry.t ->
  Accent_kernel.Host.t ->
  Accent_kernel.Proc.t ->
  (int * int) list
(** [(host_id, bytes)] of everywhere the process's validated non-zero
    memory currently lives, largest share first (ties by host id).  The
    process's own host carries its materialised pages; IOU-backed ranges
    are attributed to the backing port's home host (unlocatable segments
    are dropped). *)

val affinity :
  registry:Accent_net.Net_registry.t ->
  Accent_kernel.Host.t ->
  Accent_kernel.Proc.t ->
  host_id:int ->
  float
(** Fraction of the process's placed bytes living on [host_id]; 0 when the
    process has no placeable memory.  One walk over the space's region map
    summing two ints: O(regions), with no tables and no per-region
    allocation — the placement policies ask it per candidate per tick. *)
