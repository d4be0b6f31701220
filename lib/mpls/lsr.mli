(** Label-switching on the MicroEngine fast path.

    The paper's architecture treats even IP as "just a forwarder", and its
    peak-rate measurements are explicitly "what one would expect in the
    common case for a virtual circuit-based switch, such as one that
    supports MPLS" (section 3.5.1).  This module is the replacement
    classifier section 4.5 gestures at: a label lookup instead of the IP
    header hash, swap/pop/push instead of TTL-and-checksum.

    Tables follow the standard split:
    - the {b ILM} (incoming label map) binds an incoming top label to a
      next-hop label forwarding entry: swap to a new label, pop and
      forward (penultimate hop), or pop and hand the exposed IP packet to
      the ordinary IP path (egress LER);
    - the {b FTN} binds an IP prefix (the FEC) to a label push for
      unlabelled packets entering the LSP (ingress LER).

    Label operations run within the VRP budget — a swap is 20
    instructions, one hash, one 4-byte SRAM read — which is why the
    fast-path rate matches plain IP forwarding (see `bench mpls`). *)

type nhlfe =
  | Swap of { out_label : int; out_port : int }
  | Pop_and_forward of { out_port : int }  (** penultimate-hop pop *)
  | Pop_and_route  (** egress: continue as IP *)

type stats = {
  swapped : Sim.Stats.Counter.t;
  pushed : Sim.Stats.Counter.t;
  popped : Sim.Stats.Counter.t;
  label_miss : Sim.Stats.Counter.t;
  ttl_expired : Sim.Stats.Counter.t;
}

type t

val create : unit -> t

val stats : t -> stats

(** {1 Table management (the control plane / LDP's job)} *)

val add_ilm : t -> label:int -> nhlfe -> unit

val add_ftn : t -> Iproute.Prefix.t -> push_label:int -> out_port:int -> unit
(** Bind a FEC: unlabelled packets matching the prefix enter the LSP. *)

(** {1 Data plane} *)

val process :
  t ->
  Router.t ->
  Router.Chip_ctx.t ->
  Packet.Frame.t ->
  in_port:int ->
  Router.Input_loop.target
(** Protocol processing for [Router.start ~process]: labelled packets take
    the label fast path; unlabelled packets matching an FTN entry are
    encapsulated; everything else falls through to
    {!Router.default_process}. *)
