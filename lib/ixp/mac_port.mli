(** A MAC Ethernet port (paper section 2.2: 8 x 100 Mbps + 2 x 1 Gbps).

    Receive side: the MAC segments each arriving frame into 64-byte MPs in
    its small port memory, a ring of packed (tag, index) words beside the
    frame reference; input contexts drain it in bursts with
    {!take_burst}.  If port memory overflows because the MicroEngines
    fall behind line rate, frames drop here — exactly the receive
    pressure the paper's line-speed requirement exists to avoid.

    The transfer FIFOs between this memory and DRAM are not modelled as
    slot objects: the MP-to-DRAM copy and the transmit-side FIFO work are
    Table 2 charges the input and output loops book per MP
    ([Cost_model.input_copy_instr], [output_serial_wait] and
    [output_mp_instr]), and the bytes stay in the one DRAM frame.

    Transmit side: {!tx_try_pace} paces each outgoing MP at line rate and
    {!transmit_frame} hands the finished frame to the attached sink. *)

type t

val create :
  Sim.Engine.t ->
  id:int ->
  mbps:float ->
  rx_slots:int ->
  ?sink:(Packet.Frame.t -> unit) ->
  unit ->
  t

val id : t -> int
val mbps : t -> float

val set_sink : t -> (Packet.Frame.t -> unit) -> unit
(** Replace where transmitted frames are delivered — e.g. wire this port
    to another router's receive side to build multi-router topologies.
    Always resets the borrow flag (see {!set_sink_borrows}): an external
    sink gets a private copy of each frame. *)

val set_sink_borrows : t -> bool -> unit
(** Declare that the current sink consumes each frame synchronously
    during the call and never retains it.  {!transmit_frame} then lends
    the DRAM buffer directly (when its length matches) instead of
    allocating a per-packet copy.  Only safe for internal sinks such as
    the router's delivery digest; {!set_sink} clears it. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Enable wire-level fault injection on this port's receive side: burst
    frame loss, whole-frame garbage, truncation, and byte corruption,
    applied (in that precedence) to each offered frame before it enters
    port memory.  Mangled frames are copies; the source's frame is never
    written. *)

val link_up : t -> bool

val set_tx_gate : t -> (unit -> bool) -> unit
(** Install an upstream transmit gate.  While the gate returns [false],
    {!tx_try_pace} reports the wire busy (counted in
    {!tx_gated}), so the output loop backs off and frames accumulate in
    the router's own queues instead of a congested downstream hop — how
    fabric-queue backpressure reaches a member's egress path.  Ports
    without a gate pay one [None] check. *)

val set_link_up : t -> bool -> unit
(** Raise or cut the physical link.  While down, offered frames are
    refused (counted in {!rx_link_down}) and transmitted frames vanish at
    the dead PHY (counted in {!tx_link_down}, never reaching the sink) —
    the fail-stop behaviour of a crashed cluster member's ports. *)

(** {1 Receive (wire to router)} *)

val offer : t -> Packet.Frame.t -> bool
(** [offer p f] is called by a traffic source when a frame finishes
    arriving.  Returns false — and counts a drop — if port memory cannot
    hold its MPs. *)

val take_burst : t -> meta:int array -> frames:Packet.Frame.t array -> max:int -> int
(** [take_burst p ~meta ~frames ~max] drains up to [max] received MPs
    into the parallel arrays (raw meta word + frame reference per MP),
    returning how many were taken.  Decode the meta words with
    {!tag_of_meta} / {!index_of_meta}.  Allocation-free.  MPs arrive in
    ring order, whole frames contiguous. *)

val tag_of_meta : int -> Packet.Mp.tag
(** Decode a {!take_burst} meta word's MP tag. *)

val index_of_meta : int -> int [@@test_only]
(** Decode a {!take_burst} meta word's MP index within its frame. *)

val park_rx : t -> (unit -> unit) -> unit
(** [park_rx p w] registers [w] to be called when this port next accepts
    a frame — or immediately, if MPs are already waiting.  One parked
    waiter is woken per accepted frame.  Used with [Engine.suspend] so
    an idle input context sleeps instead of polling. *)

val frame_time_ps : t -> bytes:int -> int64 [@@test_only]
(** Wire time of a [bytes]-byte frame including preamble and inter-frame
    gap (IEEE 802.3: 8 + 12 overhead bytes) — what a line-rate source
    waits between frames. *)

(** {1 Transmit (router to wire)} *)

val tx_try_pace : t -> last:bool -> int
(** [tx_try_pace p ~last] asks the MAC for a transmit slot for one MP:
    the wire drains at line rate, with one MP of headroom so preparing
    the next MP overlaps transmitting the current one.  [-1] reserves
    the slot; any other value is the strictly positive wait in ps until
    the slot frees.  [last] marks the frame's final MP, which also pays
    the preamble + inter-frame-gap wire time.  Allocation-free. *)

val transmit_frame : t -> Packet.Frame.t -> len:int -> unit
(** [transmit_frame p f ~len] transmits a whole frame whose bytes already
    sit assembled in [f] (the DRAM buffer): the MAC counts it and delivers
    a fresh [len]-byte copy to the sink — or [f] itself, to a borrowing
    sink when [len] matches (see {!set_sink_borrows}).  While the link is
    down the frame is counted in {!tx_link_down} and never delivered.
    The per-MP wire pacing happens through {!tx_try_pace}; this is the
    data movement only. *)

(** {1 Counters} *)

val rx_frames : t -> int
(** Frames accepted into port memory. *)

val rx_dropped : t -> int
(** Frames lost to port-memory overflow. *)

val rx_lost : t -> int [@@test_only]
(** Frames lost to injected wire faults (never entered port memory). *)

val rx_link_down : t -> int
(** Frames refused because the link was administratively down. *)

val tx_link_down : t -> int
(** Frames discarded at the PHY because the link was down. *)

val tx_frames : t -> int [@@test_only]
(** Frames fully transmitted. *)

val tx_gated : t -> int
(** Transmit slots refused because the upstream gate was closed. *)
