(** Unbounded FIFO channel between fibers.

    A convenience composition of a queue and a {!Semaphore}: producers
    {!put} without blocking, consumers {!get} blocking until a value
    arrives.  Used for processor-to-processor message plumbing where the
    transport cost is charged separately (e.g. by a {!Server} modelling the
    bus). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty mailbox. *)

val put : 'a t -> 'a -> unit
(** [put mb v] enqueues [v] and wakes one blocked consumer if any. *)

val get : 'a t -> 'a
(** [get mb] (inside a fiber) dequeues the oldest value, blocking if empty. *)

val try_get : 'a t -> 'a option
(** [try_get mb] dequeues without blocking. *)
