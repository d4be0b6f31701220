(** Blocking mutual exclusion, modelling the IXP1200's hardware mutex
    support for special SRAM regions (paper section 3.4.2).

    Unlike a test-and-set spin loop, a blocked waiter consumes no memory
    bandwidth: contending contexts queue in FIFO order and are woken when
    the lock transfers.  This is the mechanism behind the "protected public
    queues" input disciplines I.2/I.3 of Table 1. *)

type t

val create : ?name:string -> unit -> t
(** [create ()] is an unlocked mutex. *)

val try_lock : t -> bool
(** [try_lock m] acquires [m] if it is free and says whether it did.
    Never suspends: a stepped context that finds [m] held parks with a
    registrar that calls {!register}. *)

val register : t -> Engine.waker -> unit
(** [register m w] queues [w] (FIFO) for a held [m]; when [m] is
    unlocked, ownership passes to the oldest waiter and its waker
    fires.  Counts a contended acquisition. *)

val lock : t -> unit
(** [lock m] (inside a fiber) acquires [m], blocking FIFO if held: the
    {!try_lock}/{!register} pair with the fiber suspended between. *)

val unlock : t -> unit
(** [unlock m] releases [m], transferring it to the oldest waiter if any. *)

val contended_acquires : t -> int
(** Number of acquisitions that had to wait ({!register}s). *)
