(** Traffic sources: fibers that offer frames to a router port on a
    schedule.

    The paper's testbed drives each 100 Mbps port with a Kingston
    KNE100TX-based generator at 141 Kpps of minimum-sized packets — 95% of
    the 148.8 Kpps theoretical line rate; {!spawn_line_rate} reproduces
    that shape, {!spawn_constant} gives a controlled rate. *)

type stats = {
  offered : Sim.Stats.Counter.t;  (** frames generated *)
  accepted : Sim.Stats.Counter.t;  (** frames the port had room for *)
}

val spawn_with_gap :
  Sim.Engine.t ->
  name:string ->
  next_gap:(unit -> int64) ->
  gen:(int -> Packet.Frame.t) ->
  offer:(Packet.Frame.t -> bool) ->
  unit ->
  stats
(** The general source every other spawner reduces to: [next_gap ()] is
    the next inter-arrival gap in picoseconds (an arbitrary — e.g.
    Markov-modulated — arrival process), [gen i] builds the [i]th frame.
    The wait is elision-capable, so an uncontended source never touches
    the run queue. *)

val spawn_constant :
  Sim.Engine.t ->
  name:string ->
  pps:float ->
  gen:(int -> Packet.Frame.t) ->
  offer:(Packet.Frame.t -> bool) ->
  unit ->
  stats
(** Fixed inter-arrival source; [gen i] builds the [i]th frame. *)

val line_rate_pps : mbps:float -> frame_len:int -> float
(** Theoretical maximum frame rate of a link (IEEE 802.3 framing overhead
    included): 148.8 Kpps for 64-byte frames at 100 Mbps. *)

val spawn_line_rate :
  Sim.Engine.t ->
  name:string ->
  mbps:float ->
  frame_len:int ->
  gen:(int -> Packet.Frame.t) ->
  offer:(Packet.Frame.t -> bool) ->
  unit ->
  stats
(** A generator pinned at 95% of line rate (the testbed's 141 of
    148.8 Kpps). *)
