(** Admission control (paper section 4.6).

    For MicroEngine forwarders: inspect the code, count cycles (inflated by
    a branch-delay factor over raw instruction counts, as the paper notes)
    and memory accesses, and verify the VRP budget and ISTORE space.
    Straight-line verification is trivial because VRP code cannot contain a
    backward jump.

    General forwarders run serially — their costs {e sum} against the
    budget; per-flow forwarders run logically in parallel — only the most
    expensive one counts.

    For Pentium forwarders: the requester declares an expected packet rate
    and per-packet cycles; the forwarder is admitted only if the processor
    has the cycle rate to spare and the total packet rate stays below the
    PCI path's maximum. *)

type t = {
  budget : Vrp.budget;
  branch_delay_factor : float;
      (** multiplies instruction counts into cycle requirements *)
  pe_cycle_hz : float;  (** Pentium cycles per second available to flows *)
  pe_max_pps : float;  (** the PCI path's packet-rate ceiling (Table 4) *)
  pe_headroom : float;  (** fraction of the Pentium reservable (0..1) *)
}

val default : Ixp.Config.t -> t
(** Budget {!Vrp.prototype_budget}, 5% branch-delay inflation, Pentium
    limits from Table 4. *)

type me_load = {
  mutable serial_cost : Vrp.cost;  (** sum of admitted general forwarders *)
  mutable parallel_max_cycles : int;
      (** most expensive admitted per-flow forwarder *)
  mutable state_in_use : int;
  mutable slots_in_use : int;
}

val empty_me_load : unit -> me_load

val admit_me :
  t -> me_load -> Forwarder.t -> per_flow:bool -> (unit, string list) result
(** Check a data forwarder against the remaining VRP budget; on success the
    load record is updated to reflect the reservation. *)

val release_me : t -> me_load -> Forwarder.t -> per_flow:bool -> unit
(** Return a forwarder's reservation (inverse of {!admit_me}, except that
    the caller recomputes [parallel_max_cycles] from the per-flow
    forwarders still bound, as {!Iface.remove} does). *)

type pe_load = { mutable cycle_rate : float; mutable pkt_rate : float }

val empty_pe_load : unit -> pe_load

val admit_pe :
  t ->
  pe_load ->
  expected_pps:float ->
  cycles_per_pkt:int ->
  (unit, string list) result
(** The Pentium-side test: cycle rate and packet rate must both fit. *)

val release_pe : pe_load -> expected_pps:float -> cycles_per_pkt:int -> unit

val me_cycles_required : t -> Forwarder.t -> int
(** Instruction count inflated by the branch-delay factor. *)
