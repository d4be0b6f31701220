(** The StrongARM level (paper sections 3.6, 4.1, 4.5).

    The StrongARM runs a minimal OS that does exactly two things: bridge
    packets to the Pentium over PCI/I2O, and run a small fixed set of local
    forwarders.  Packets bound for the Pentium take strict precedence over
    local work.  It shares SRAM/DRAM with the MicroEngines, so every memory
    operation here contends on the same simulated channels — the
    interference that forces it to live within the same resource budget.

    Dequeue policy is polling by default; the interrupt alternative (which
    the paper measured as "significantly slower") charges a per-packet
    interrupt cost. *)

type payload = { desc : Desc.t; frame : Packet.Frame.t; bytes : int }
(** What crosses the PCI bus: the descriptor's metadata (the classification
    result, "so that [the Pentium] does not have to re-classify") plus the
    frame; [bytes] is what the transfer actually put on the bus. *)

type wakeup = Polling | Interrupts

type stats = {
  local_done : Sim.Stats.Counter.t;  (** packets forwarded by local code *)
  bridged : Sim.Stats.Counter.t;  (** packets sent up to the Pentium *)
  returned : Sim.Stats.Counter.t;  (** Pentium packets re-enqueued down *)
  dropped : Sim.Stats.Counter.t;
  route_misses : Sim.Stats.Counter.t;  (** full lookups performed *)
  icmp_sent : Sim.Stats.Counter.t;
      (** Time Exceeded / Destination Unreachable errors generated *)
  stale_bufs : Sim.Stats.Counter.t;
      (** packets lapped by the circular buffer pool while awaiting
          slow-path service (section 3.2.3's loss mode) *)
}

type t = {
  cm : Cost_model.t;
  ctx : Chip_ctx.t;  (** CPU view: own core, shared memory channels *)
  wakeup : wakeup;
  local_q : Squeue.t;  (** exceptional/local packets from the MicroEngines *)
  pe_qs : Squeue.t array;  (** per-flow queues bound for the Pentium *)
  to_pe : payload Ixp.I2o.t;
  returns : Desc.t Sim.Mailbox.t;
      (** descriptor ring the Pentium fills on its way back down *)
  lookup_fid : int -> Classifier.entry option;  (** forwarder dispatch *)
  routes : Iproute.Table.t;
  out_enqueue : Chip_ctx.t -> Desc.t -> bool;
      (** place a finished packet on its output-port queue *)
  read_buffer : Desc.t -> Packet.Frame.t option;
  full_copy : bool;
      (** true: ship whole frames across PCI (the Table 4 measurement);
          false: the 64-byte head + 8-byte routing header optimization *)
  icmp_addr : (int -> Packet.Ipv4.addr) option;
      (** the router's own address per input port; [None] disables ICMP
          error generation *)
  work_signal : Sim.Semaphore.t;  (** interrupt-mode doorbell *)
  stats : stats;
  mutable busy_ps : int;  (** time spent working, native-int ps (excludes idle and
                                backpressure waits) *)
  mutable pe_rr : int;  (** round-robin cursor over [pe_qs] *)
  mutable faults : Fault.Injector.t option;
}

val create :
  Ixp.Chip.t ->
  Cost_model.t ->
  ?wakeup:wakeup ->
  ?pe_buffers:int ->
  ?full_copy:bool ->
  ?icmp_addr:(int -> Packet.Ipv4.addr) ->
  lookup_fid:(int -> Classifier.entry option) ->
  routes:Iproute.Table.t ->
  out_enqueue:(Chip_ctx.t -> Desc.t -> bool) ->
  unit ->
  t

val spawn : t -> Ixp.Chip.t -> unit
(** Start the StrongARM's main loop fiber. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Enable crash-and-restart injection: with probability [sa_crash] per
    service-loop iteration the CPU stalls for [sa_restart_us].  Queues
    are in SRAM and survive the reboot. *)

val notify : t -> unit
(** A MicroEngine context signalling that a packet was queued (one-cycle
    inter-thread signal; drives interrupt mode, a no-op under polling). *)

val busy_cycles : t -> float
(** StrongARM cycles spent on packet work; its complement against the
    clock is Table 4's spare-cycle column. *)

val register_telemetry : Telemetry.Scope.t -> t -> unit
(** Register the StrongARM's packet counters and its local/Pentium-bound
    queue scopes into a telemetry scope. *)
