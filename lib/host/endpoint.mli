(** End systems: minimal but real TCP endpoints attached to router ports.

    The paper's heavyweight forwarders (TCP proxies, splicing, ACK
    monitoring) presume real TCP flows.  This module provides them: a host
    owns an address, transmits frames into a router port and receives the
    frames the router delivers there.  Its TCP is deliberately small —
    three-way handshake, cumulative ACKs, a fixed window, go-back-N
    retransmission on a single timer, in-order reassembly with an
    out-of-order buffer — but it is an honest state machine, so splicing a
    connection mid-stream (rewriting sequence numbers in the data plane)
    is verified by a real receiver reassembling the right bytes. *)

type t
(** A host: one address, one attachment point. *)

type conn
(** One TCP connection endpoint. *)

val create :
  Sim.Engine.t ->
  addr:Packet.Ipv4.addr ->
  send:(Packet.Frame.t -> bool) ->
  unit ->
  t [@@test_only]
(** [create engine ~addr ~send ()] attaches a host whose outbound frames
    go through [send] (typically [Router.inject r ~port:p]).  Wire the
    reverse direction with {!deliver} from the port's sink. *)

val deliver : t -> Packet.Frame.t -> unit [@@test_only]
(** Hand the host a frame the network delivered (ignores frames not
    addressed to it). *)

val listen : t -> port:int -> unit [@@test_only]
(** Accept connections to [port]. *)

val connect : t -> dst:Packet.Ipv4.addr -> dst_port:int -> src_port:int -> conn
  [@@test_only]
(** Start an active open (SYN goes out on the next tick).  The returned
    endpoint becomes {!established} when the handshake completes. *)

val accepted : t -> port:int -> conn list [@@test_only]
(** Connections accepted on a listening port so far. *)

val established : conn -> bool [@@test_only]

val send : conn -> string -> unit [@@test_only]
(** Queue bytes for transmission (segmented to the MSS, retransmitted
    until acknowledged). *)

val received : conn -> string [@@test_only]
(** The in-order byte stream received so far. *)

val all_acked : conn -> bool [@@test_only]
(** Every byte queued by {!send} has been cumulatively acknowledged. *)

val peer : conn -> Packet.Ipv4.addr * int [@@test_only]

val retransmissions : conn -> int [@@test_only]
(** Segments re-sent by the timer (loss-recovery witness). *)
