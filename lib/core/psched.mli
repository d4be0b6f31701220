(** Proportional-share scheduling for the Pentium's cycles (paper section
    4.1: "we run a proportional share scheduler on the Pentium, where
    deciding what share to allocate to each flow is a policy issue", after
    Qie et al. [19]).

    Stride scheduling: each client holds a share; the client with the
    minimum virtual pass runs next and its pass advances by
    [work / share].  Deterministic, O(clients) per pick (client counts
    here are small), and starvation-free for any positive share. *)

type 'a t
(** A scheduler over clients queueing work items of type ['a]. *)

type 'a client

val create : unit -> 'a t

val add_client : 'a t -> name:string -> share:float -> 'a client
(** [add_client t ~name ~share] registers a client; [share > 0].  A new
    client starts at the scheduler's minimum pass, so it cannot claim a
    catch-up burst. *)

val remove_client : 'a t -> 'a client -> unit
(** Unregister; queued work is dropped. *)

val enqueue : 'a t -> 'a client -> 'a -> unit
(** Queue a work item for the client. *)

val next : 'a t -> ('a client * 'a) option
(** [next t] picks the backlogged client with minimum pass and dequeues its
    oldest item. *)

val charge : 'a t -> 'a client -> float -> unit
(** [charge t c work] advances [c]'s pass by [work / share] — call with the
    cycles the item actually consumed so heavy users fall behind. *)

val backlog : 'a t -> int
(** Total queued items. *)

val client_name : 'a client -> string

val served : 'a client -> int
(** Items dispatched to this client so far. *)

val register_telemetry : Telemetry.Scope.t -> 'a t -> unit
(** Register the backlog gauge and a snapshot-time per-client table
    (name, share, served, work, queued) under a telemetry scope. *)
