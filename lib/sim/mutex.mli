(** Blocking mutual exclusion, modelling the IXP1200's hardware mutex
    support for special SRAM regions (paper section 3.4.2).

    Unlike a test-and-set spin loop, a blocked waiter consumes no memory
    bandwidth: contending contexts queue in FIFO order and are woken when
    the lock transfers.  This is the mechanism behind the "protected public
    queues" input disciplines I.2/I.3 of Table 1. *)

type t

val create : ?name:string -> unit -> t
(** [create ()] is an unlocked mutex. *)

val lock : t -> unit
(** [lock m] (inside a fiber) acquires [m], blocking FIFO if held. *)

val unlock : t -> unit
(** [unlock m] releases [m], transferring it to the oldest waiter if any. *)

val contended_acquires : t -> int
(** Number of {!lock} calls that had to block. *)
