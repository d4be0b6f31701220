(** Forwarders: the unit of extensibility (paper sections 2.1, 4.4, 4.5).

    A {e data forwarder} processes every matching packet in the data plane.
    Its resource consumption is declared as VRP {!Vrp.code} (what admission
    control inspects and the simulator charges) and its behaviour as an
    OCaml [action] over the real packet bytes and its flow state.  A
    {e control forwarder} is ordinary code run on the Pentium that manages
    its data half through [getdata]/[setdata] — see {!Iface}.

    Per-flow forwarders bind to a 4-tuple and logically run in parallel (at
    most one matches a packet); general forwarders bind to [All] and run
    serially on every packet, minimal IP last (Figure 11). *)

type verdict =
  | Continue  (** fall through to the next forwarder in the chain *)
  | Forward of int  (** stop the chain; send out this port *)
  | Forward_routed  (** stop; use the classifier's routing decision *)
  | Drop  (** stop; discard the packet *)
  | Divert of Desc.level  (** stop; pass up the processor hierarchy *)

type action = state:Bytes.t -> Packet.Frame.t -> in_port:int -> verdict
(** The functional behaviour.  [state] is the forwarder's persistent flow
    state (the SRAM block [getdata]/[setdata] share with the control
    plane); mutations to it and to the frame are the forwarder's effect. *)

type t = {
  name : string;
  code : Vrp.code;  (** declared per-MP cost, for admission + charging *)
  state_bytes : int;  (** persistent SRAM flow state to allocate *)
  host_cycles : int;
      (** per-packet cost when run on the StrongARM or Pentium instead of
          in the VRP (e.g. full IP at 660 cycles, a TCP proxy at 800 —
          section 4.4); defaults to the VRP code's cycle estimate *)
  action : action;
}

val make :
  name:string -> code:Vrp.code -> state_bytes:int -> ?host_cycles:int ->
  action -> t

val null : t
(** The null forwarder of section 3: no code, no state, routes onward. *)

val cost : t -> Vrp.cost
val istore_slots : t -> int

val pp_verdict : Format.formatter -> verdict -> unit
