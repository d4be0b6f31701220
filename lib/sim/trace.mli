(** Event tracing: a bounded ring of timestamped events for debugging
    simulated pipelines.

    The ring overwrites its oldest entries, keeping the most recent
    window — the part that matters when a run ends in a surprise. *)

type t

type event = { at : int64; what : string }

val create : ?capacity:int -> unit -> t
(** [create ()] is an empty trace with room for [capacity] (default
    4096) events. *)

val record : t -> at:int64 -> what:string -> unit
(** Record an event stamped [at] (simulated picoseconds). *)

val events : t -> event list
(** Oldest first, at most [capacity]. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val find : t -> what_contains:string -> event list [@@test_only]
(** Events whose label contains the substring. *)
