(** Frame generators: the packet mixes the experiments and examples feed
    through the router. *)

val subnet_addr : subnet:int -> host:int -> Packet.Ipv4.addr
(** [subnet_addr ~subnet ~host] is 10.[subnet].x.y — the address scheme the
    default test topology routes as one /16 per port. *)

val udp_uniform :
  ?pool:Packet.Frame_pool.t ->
  rng:Sim.Rng.t ->
  n_subnets:int ->
  ?frame_len:int ->
  unit ->
  int ->
  Packet.Frame.t
(** Minimum-size UDP frames with destinations uniform over the routed
    subnets (spreads load over all output ports).  [pool] recycles frame
    storage through a {!Packet.Frame_pool}. *)

val udp_fixed : dst:Packet.Ipv4.addr -> unit -> int -> Packet.Frame.t
(** Every frame, minimum-size, to one destination (the port-contention
    workload). *)

val syn_flood :
  rng:Sim.Rng.t -> dst:Packet.Ipv4.addr -> dst_port:int -> int -> Packet.Frame.t
(** SYN packets from random spoofed sources — what the SYN monitor is for. *)

val layered_video :
  flow:Packet.Flow.tuple -> layers:int -> unit -> int -> Packet.Frame.t
(** The wavelet dropper's workload: minimum-size UDP frames whose first
    payload byte
    cycles through layer numbers [0 .. layers-1]. *)

val with_options_share :
  rng:Sim.Rng.t -> share:float -> (int -> Packet.Frame.t) -> int ->
  Packet.Frame.t
(** Make fraction [share] of a base generator's frames "exceptional" by
    inserting IP options (the control-flood robustness workload). *)
