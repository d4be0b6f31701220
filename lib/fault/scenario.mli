(** A fault scenario: which faults fire, how often, with what parameters.

    A scenario is pure data — deterministic, comparable, serializable —
    so a failing run can be replayed exactly from its spec string and
    seed.  All rates are per-opportunity probabilities in [0, 1]: a MAC
    fault rate is per received frame, a memory fault rate is per memory
    operation, a crash rate is per service-loop iteration.  {!zero}
    (every rate 0) is the distinguished "faults off" value; the router
    builds no injector for it, so the zero-fault path costs nothing.

    Every rate names a site some router component draws on.  Bytes are
    damaged only on the wire (the [mac_*] keys): memory channels and
    the transfer FIFOs carry accounting, not payload — the FIFOs are
    Table 2 cost-model charges, not slot objects — so there is no
    memory or FIFO bit-flip key, and {!parse} rejects one as unknown. *)

type t = {
  seed : int64;  (** seeds the injector's RNG stream *)
  mem_delay : float;  (** stalled memory operation *)
  mem_delay_cycles : int;  (** extra latency of a stalled operation *)
  mem_drop : float;  (** memory operation silently dropped *)
  mac_corrupt : float;  (** received frame has 1-4 bytes corrupted *)
  mac_truncate : float;  (** received frame cut short on the wire *)
  mac_garbage : float;  (** received frame replaced by random bytes *)
  mac_loss : float;  (** start of a burst of lost frames *)
  mac_burst : int;  (** frames lost per loss burst *)
  pool_fail : float;  (** buffer-pool allocation failure *)
  vrp_overrun : float;  (** forwarder exceeding its VRP budget *)
  rogue_forwarder : float;  (** forwarder returning a garbage verdict *)
  sa_crash : float;  (** StrongARM crash-and-restart *)
  sa_restart_us : float;  (** StrongARM reboot time *)
  pe_crash : float;  (** Pentium crash-and-restart *)
  pe_restart_us : float;  (** Pentium reboot time *)
}

val zero : t
(** No faults (seed 0).  The value [Router.create] treats as "injection
    disabled". *)

val is_zero : t -> bool
(** Are all rates zero (parameters ignored)? *)

val with_seed : t -> int64 -> t

val parse : string -> (t, string) result
(** [parse spec] reads a comma-separated [key:value] list, e.g.
    ["mac_corrupt:0.01,pool_fail:0.005,mac_burst:8"].  [""] and ["none"]
    are {!zero}.  Unknown keys, malformed or non-finite values, rates
    outside [0, 1] and negative parameters are errors.  So is a [seed]
    key: the seed is set with {!with_seed}, never by the spec. *)

val to_spec : t -> string
(** Canonical spec string (non-zero fields only, sorted): [parse
    (to_spec s) = Ok s] for every parsed [s] (a spec carries no seed, so
    a parsed scenario has seed 0).  ["none"] for {!zero}.  This is what a failing run prints in its repro command. *)

val to_json : t -> Telemetry.Json.t
(** Full record as JSON (seed included), for bench attachments. *)
