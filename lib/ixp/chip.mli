(** The assembled IXP1200 evaluation system: one engine, one chip's worth
    of MicroEngines, memories, hash unit, instruction stores, MAC ports,
    and the PCI interface (paper Figure 3).

    The transfer FIFOs have no object here.  An MP's trip between a MAC
    port and DRAM is booked as Table 2 charges by the input and output
    loops ([Cost_model.input_copy_instr], [output_serial_wait] and
    [output_mp_instr]); the bytes stay in one DRAM frame. *)

type t = {
  cfg : Config.t;
  engine : Sim.Engine.t;
  me_clock : Sim.Engine.Clock.clock;
  pentium_clock : Sim.Engine.Clock.clock;
  dram : Mem.t;
  sram : Mem.t;
  scratch : Mem.t;
  mes : Microengine.t array;
  istores : Istore.t array;  (** one per MicroEngine *)
  hash : Hash_unit.t;
  ports : Mac_port.t array;
  pci : Pci.t;
  buffers : Buffer_pool.t;
}

type port_spec = { mbps : float; sink : (Packet.Frame.t -> unit) option }
(** How to instantiate one MAC port. *)

val eval_board_ports : port_spec list
(** The evaluation board's 8 x 100 Mbps + 2 x 1 Gbps ports, no sinks. *)

val create :
  ?cfg:Config.t ->
  ?ports:port_spec list ->
  ?circular_buffers:bool ->
  Sim.Engine.t ->
  t
(** [create engine] builds the default evaluation system.
    [circular_buffers] (default true) selects the paper's single-pass
    circular buffer pool; false selects the stack-pool alternative. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Arm every fault point on the chip — memory channels, MAC ports, and
    the buffer pool — with one shared injector. *)

val context_me : t -> int -> Microengine.t
(** [context_me chip ctx] is the MicroEngine hosting global context number
    [ctx] (contexts are numbered ME-major: context 0..3 on ME 0, ...). *)

val elapsed : t -> int64
(** Engine time, for rate computations. *)
