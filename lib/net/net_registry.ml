open Accent_ipc

type fragment = {
  msg : Message.t;
  index : int;
  count : int;
  wire_bytes : int;
  ack : unit -> unit;
}

type arq_packet =
  | Arq_data of {
      src : int;
      msg : Message.t;
      uid : int;
      seq : int;
      count : int;
      wire_bytes : int;
      checksum : int;
    }
  | Arq_ack of { src : int; uid : int; cum : int; sacks : int list }

type t = {
  homes : int Port.Table.t;
  inbound : (int, fragment -> unit) Hashtbl.t;
  arq_inbound : (int, arq_packet -> unit) Hashtbl.t;
}

let create () =
  {
    homes = Port.Table.create 128;
    inbound = Hashtbl.create 8;
    arq_inbound = Hashtbl.create 8;
  }

let register_host t ~host_id ~deliver = Hashtbl.replace t.inbound host_id deliver

let register_arq t ~host_id ~deliver =
  Hashtbl.replace t.arq_inbound host_id deliver

let deliver_arq t ~host_id packet =
  match Hashtbl.find_opt t.arq_inbound host_id with
  | Some deliver -> deliver packet
  | None -> invalid_arg "Net_registry.deliver_arq: unknown host"
let set_port_home t port ~host_id = Port.Table.replace t.homes port host_id
let port_home t port = Port.Table.find_opt t.homes port

let port_home_id t port =
  match Port.Table.find t.homes port with
  | host_id -> host_id
  | exception Not_found -> -1

let forget_port t port = Port.Table.remove t.homes port

let deliver_to t ~host_id msg =
  match Hashtbl.find_opt t.inbound host_id with
  | Some deliver -> deliver msg
  | None -> invalid_arg "Net_registry.deliver_to: unknown host"
