(** The fault plane's runtime: a seed-replayable source of injection
    decisions, shared by every hooked component.

    One injector serves a whole simulated system.  Fault points ask
    {!fires} at each opportunity; a site whose configured rate is zero
    answers [false] without consuming randomness, so scenarios stay
    replayable regardless of which subset of sites is wired in.  All
    decisions draw from one splitmix64 stream seeded by the scenario, and
    the simulation engine interleaves fibers deterministically, so a
    (scenario, seed, workload) triple replays bit-for-bit.

    Components hold an [Injector.t option] and do nothing on [None]: the
    zero-fault path costs one branch. *)

type site =
  | Mem_delay
  | Mem_drop
  | Mac_corrupt
  | Mac_truncate
  | Mac_garbage
  | Mac_loss
  | Pool_fail
  | Vrp_overrun
  | Rogue_forwarder
  | Sa_crash
  | Pe_crash

val all_sites : site list
val site_name : site -> string

type t

val create : ?scope:Telemetry.Scope.t -> Scenario.t -> t
(** [create scenario] is a fresh injector seeded from [scenario.seed].
    With [scope], every injected fault also records a telemetry event and
    the per-site counters register as gauges. *)

val scenario : t -> Scenario.t

val fires : t -> site -> bool
(** One injection decision; counts the site when it fires.  Never draws
    randomness when the site's rate is zero. *)

val mac_frame_lost : t -> bool
(** Burst-loss decision for one received frame: inside a burst every
    frame is lost; otherwise a fresh burst starts with probability
    [mac_loss] and runs for [mac_burst] frames. *)

val draw_int : t -> int -> int
(** Uniform in [\[0, bound)] from the injection stream — for choosing
    which byte to corrupt, which port a rogue verdict names, ... *)

val corrupt_frame : t -> Packet.Frame.t -> Packet.Frame.t
(** A copy of the frame with 1-4 random bytes overwritten. *)

val truncate_frame : t -> Packet.Frame.t -> Packet.Frame.t
(** A copy of the frame cut to a random length in [\[15, len)] — headers
    now promise more bytes than the wire delivered. *)

val garbage_frame : t -> Packet.Frame.t -> Packet.Frame.t
(** A same-length frame of uniformly random bytes. *)

val count : t -> site -> int
(** Faults injected at a site so far. *)

val total : t -> int
val counts : t -> (string * int) list
(** All sites with a non-zero count, in declaration order. *)

val to_json : t -> Telemetry.Json.t
(** [{scenario, counts}] for bench attachments. *)

val pp_counts : Format.formatter -> t -> unit
