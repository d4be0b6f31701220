(** The Pentium level (paper sections 3.7, 4.1, 4.6).

    The host processor pulls packets off the I2O full queue, dispatches
    them through the proportional-share scheduler to the owning flow's
    forwarder, and returns them to the IXP (DMA down, descriptor ring for
    the StrongARM).  It also hosts control forwarders — periodic closures
    that manage data forwarders through the {!Iface} operations. *)

type stats = {
  processed : Sim.Stats.Counter.t;
  dropped : Sim.Stats.Counter.t;
}

type t

val create :
  Ixp.Chip.t ->
  Cost_model.t ->
  from_sa:Strongarm.payload Ixp.I2o.t ->
  returns:Desc.t Sim.Mailbox.t ->
  lookup_fid:(int -> Classifier.entry option) ->
  unit ->
  t

val spawn : t -> Ixp.Chip.t -> unit
(** Start the Pentium's packet loop fiber. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Enable crash-and-restart injection: with probability [pe_crash] per
    scheduler-loop iteration the host stalls for [pe_restart_us];
    queued packets survive in memory. *)

val add_flow_client : t -> fid:int -> name:string -> share:float -> unit
(** Register a proportional-share client for an installed Pentium
    forwarder (driven by {!Iface}). *)

val remove_flow_client : t -> fid:int -> unit

val spawn_control :
  t ->
  Ixp.Chip.t ->
  name:string ->
  period_us:float ->
  cycles:int ->
  (unit -> bool) ->
  unit
(** [spawn_control t chip ~name ~period_us ~cycles f] runs a control
    forwarder: every period, charge [cycles] and call [f]; stop when [f]
    returns false. *)

val stats : t -> stats

val register_telemetry : Telemetry.Scope.t -> t -> unit
(** Register the packet counters, busy-time gauge, and the
    proportional-share scheduler's per-client table (under a ["sched"]
    sub-scope) into a telemetry scope. *)

val busy_cycles : t -> float
(** Pentium cycles consumed by packet work (PIO stalls included) — the
    complement of Table 4's spare-cycle delay-loop measurement. *)

val spare_cycles_per_packet : t -> float
(** [capacity/rate - busy/packets] over the run so far; Table 4's "Pentium
    (Cycles)" column. *)

val served_by_fid : t -> (int * string * int) list [@@test_only]
(** Per-client dispatch counts (robustness experiments). *)
