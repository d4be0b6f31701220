(** The invariant registry: named router-wide properties audited at
    simulation barriers.

    Each invariant is a closure returning [None] when the property holds
    and [Some detail] when it doesn't.  {!check} evaluates every
    registered invariant and records a {!violation} per failure, stamped
    with the simulated time; the run driver calls it between workload
    phases and once at the end of the run.  Invariants are pure reads of
    component state (pool accounting, queue depths, delivery counters),
    so checking is free for the packet path. *)

type violation = { name : string; detail : string; at : int64 }

type t

val create : ?scope:Telemetry.Scope.t -> ?clock:(unit -> int64) -> unit -> t
(** [create ()] is an empty registry.  With [scope], each violation also
    records a telemetry event; [clock] stamps violations (default
    constant [0L] — pass the engine clock). *)

val register : t -> string -> (unit -> string option) -> unit
(** [register t name check] adds an invariant.  [check] runs at every
    barrier; returning [Some detail] records a violation. *)

val check : t -> int
(** Evaluate every invariant once; the number of {e new} violations. *)

val checks : t -> int [@@test_only]
(** Barriers run so far. *)

val violations : t -> violation list
(** All violations recorded, oldest first. *)

val ok : t -> bool

val pp_report : Format.formatter -> t -> unit
(** One line per violation, or a clean-bill one-liner. *)

val to_json : t -> Telemetry.Json.t
