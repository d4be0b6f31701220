(** The metrics registry: named, labeled scopes unifying the [Sim.Stats]
    counters/histograms and [Sim.Trace] event rings already scattered
    through the hot paths, plus read-on-demand gauges, behind one
    {!snapshot} operation with a deterministic JSON serialization.

    A {e scope} is a node in a dotted namespace (["input"],
    ["queue.outq3"], ["me"] with label [id=2], ...).  Hot-path modules
    register their existing instruments into a scope — registration is a
    one-time cost; the per-packet code keeps mutating the same records it
    always did.  Gauges and dynamics are closures evaluated only at
    snapshot time, so an idle registry costs nothing per packet. *)

type t
(** A registry. *)

module Scope : sig
  type t
  (** One named, labeled scope within a registry. *)

  val name : t -> string [@@test_only]
  (** Full dotted path from the root. *)

  val labels : t -> (string * string) list [@@test_only]

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

  val events : t -> Sim.Trace.event list [@@test_only]
  (** Events recorded so far (oldest first, bounded by the ring). *)
end

val create : unit -> t
(** [create ()] is a registry whose per-scope event rings hold 256
    entries. *)

val set_clock : t -> (unit -> int64) -> unit
(** Timestamp source for events and snapshots — typically
    [fun () -> Sim.Engine.time engine], so telemetry runs on the
    deterministic simulated clock.  Defaults to a constant [0L]. *)

val scope : ?labels:(string * string) list -> t -> string -> Scope.t
(** [scope t name] is [Scope.sub (root t) name]. *)

val snapshot : t -> Json.t
(** Serialize every non-empty scope: scopes sorted by (name, labels),
    metrics sorted by name, so equal registry states yield equal JSON. *)

val snapshot_string : t -> string [@@test_only]
(** [Json.to_string (snapshot t)]. *)
