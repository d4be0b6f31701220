(** Event tracing: a bounded ring of timestamped events for debugging
    simulated pipelines.

    Tracing is opt-in and cheap when disabled: {!record} on a disabled
    trace is a single branch, so instrumentation can stay in place.  The ring
    overwrites its oldest entries, keeping the most recent window — the
    part that matters when a run ends in a surprise. *)

type t

type event = { at : int64; who : string; what : string }

val create : ?capacity:int -> unit -> t
(** [create ()] is a disabled trace with room for [capacity] (default
    4096) events. *)

val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val record : t -> at:int64 -> who:string -> what:string -> unit
(** Record an event stamped [at] (simulated picoseconds); no-op when
    disabled. *)

val events : t -> event list
(** Oldest first, at most [capacity]. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val find : t -> what_contains:string -> event list
(** Events whose label contains the substring. *)

val pp : Format.formatter -> t -> unit
(** Dump the ring: one line per event with microsecond timestamps. *)
