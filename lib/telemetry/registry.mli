(** The metrics registry: named, labeled scopes unifying the [Sim.Stats]
    counters/histograms and [Sim.Trace] event rings already scattered
    through the hot paths, plus read-on-demand gauges, behind one
    {!snapshot} operation with a deterministic JSON serialization.

    A {e scope} is a node in a dotted namespace (["input"],
    ["queue.outq3"], ["me"] with label [id=2], ...).  Hot-path modules
    register their existing instruments into a scope — registration is a
    one-time cost; the per-packet code keeps mutating the same records it
    always did.  Gauges and dynamics are closures evaluated only at
    snapshot time, so an idle registry costs nothing per packet.

    A registry created (or switched) disabled records no events and
    snapshots to an empty scope list, so instrumentation can stay wired
    in permanently (mirroring [Sim.Trace]'s opt-in design). *)

type t
(** A registry. *)

module Scope : sig
  type t
  (** One named, labeled scope within a registry. *)

  val name : t -> string
  (** Full dotted path from the root. *)

  val labels : t -> (string * string) list

  val sub : ?labels:(string * string) list -> t -> string -> t
  (** [sub scope name] is the child scope [scope.name]; [labels] are
      appended to the parent's.  Each call creates a distinct scope (two
      [sub]s with the same name are two snapshot entries), so create
      scopes once at wiring time. *)

  val counter : t -> string -> Sim.Stats.Counter.t
  (** [counter scope name] is the counter registered under [name],
      creating and registering it on first use (idempotent per name). *)

  val register_counter : t -> name:string -> Sim.Stats.Counter.t -> unit
  (** Adopt an existing counter under [name]. *)

  val histogram : t -> string -> Sim.Stats.Histogram.t
  (** Like {!counter} for histograms; snapshots as
      [{count, mean, p50, p99, max}]. *)

  val register_histogram : t -> name:string -> Sim.Stats.Histogram.t -> unit

  val gauge : t -> string -> (unit -> float) -> unit
  (** [gauge scope name read] registers a float read at snapshot time. *)

  val gauge_int : t -> string -> (unit -> int) -> unit

  val dynamic : t -> string -> (unit -> Json.t) -> unit
  (** Arbitrary JSON computed at snapshot time (per-client scheduler
      tables, ...). *)

  val event : t -> string -> unit
  (** Record a timestamped event in this scope's bounded ring ([who] is
      the scope path).  A single branch when the registry is disabled:
      nothing is allocated or recorded. *)

  val event_at : t -> at:int64 -> string -> unit
  (** {!event} stamped [at] instead of the registry clock: for a scope
      whose events happen on a clock of their own, like a cluster
      member's engine. *)

  val events : t -> Sim.Trace.event list
  (** Events recorded so far (oldest first, bounded by the ring). *)
end

val create : ?enabled:bool -> unit -> t
(** [create ()] is an enabled registry whose per-scope event rings hold
    256 entries. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val set_clock : t -> (unit -> int64) -> unit
(** Timestamp source for events and snapshots — typically
    [fun () -> Sim.Engine.time engine], so telemetry runs on the
    deterministic simulated clock.  Defaults to a constant [0L]. *)

val root : t -> Scope.t

val scope : ?labels:(string * string) list -> t -> string -> Scope.t
(** [scope t name] is [Scope.sub (root t) name]. *)

val snapshot : ?at:int64 -> t -> Json.t
(** Serialize every non-empty scope: scopes sorted by (name, labels),
    metrics sorted by name, so equal registry states yield equal JSON.
    [at] overrides the clock timestamp. *)

val snapshot_string : ?at:int64 -> t -> string
(** [Json.to_string (snapshot t)]. *)
