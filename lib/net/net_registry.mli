(** The NetMsgServers' shared notion of where ports live.

    Accent NetMsgServers kept (and gossiped) tables mapping ports to hosts;
    we model that state as a registry shared by all NMS instances in one
    simulated world.  Receive rights moving — as happens for every port of
    a migrated process — update the home entry, which is what gives Accent
    its location transparency: senders keep using the same port id. *)

type fragment = {
  msg : Accent_ipc.Message.t;
  index : int;  (** 0-based fragment number *)
  count : int;  (** total fragments of this message *)
  wire_bytes : int;  (** this fragment's share of the wire size *)
  ack : unit -> unit;
      (** flow control: the receiver calls this once the fragment is
          processed, releasing the sender's next fragment (the protocol is
          stop-and-wait, as 1987 NetMsgServers were) *)
}
(** Messages travel as trains of fragments; the receiving NetMsgServer
    reassembles (fragments of one message arrive in order — the medium is
    FIFO). *)

(** Packets of the sliding-window transport ({!Reliable}).  Unlike
    {!fragment}, these carry sequencing and integrity metadata, and no
    in-band flow-control callback: acknowledgements are real wire
    traffic. *)
type arq_packet =
  | Arq_data of {
      src : int;  (** sending host *)
      msg : Accent_ipc.Message.t;
      uid : int;  (** per-sender message id, for reassembly *)
      seq : int;  (** 0-based fragment number within the message *)
      count : int;  (** total fragments of this message *)
      wire_bytes : int;  (** this fragment's share of the wire size *)
      checksum : int;  (** over the fragment's payload; corruption on the
                           wire damages it *)
    }
  | Arq_ack of {
      src : int;  (** the acking (receiving) host *)
      uid : int;
      cum : int;  (** all fragments [< cum] received (cumulative ack) *)
      sacks : int list;  (** selectively-received fragments beyond [cum] *)
    }

type t

val create : unit -> t

val register_host :
  t -> host_id:int -> deliver:(fragment -> unit) -> unit
(** Attach a host's NetMsgServer inbound-delivery entry point. *)

val register_arq :
  t -> host_id:int -> deliver:(arq_packet -> unit) -> unit
(** Attach a host's reliable-transport inbound entry point. *)

val deliver_arq : t -> host_id:int -> arq_packet -> unit
(** Hand an ARQ packet that survived the wire to a host's transport.
    Raises [Invalid_argument] for unknown hosts. *)

val set_port_home : t -> Accent_ipc.Port.id -> host_id:int -> unit
val port_home : t -> Accent_ipc.Port.id -> int option

val port_home_id : t -> Accent_ipc.Port.id -> int
(** {!port_home} without the option: the home host id, or [-1] for a port
    with no home.  Allocates nothing. *)

val forget_port : t -> Accent_ipc.Port.id -> unit

val deliver_to : t -> host_id:int -> fragment -> unit
(** Hand a fragment that arrived off the wire to a host's NetMsgServer.
    Raises [Invalid_argument] for unknown hosts. *)
