(** Counting semaphore with FIFO wakeup.

    Used for inter-processor signalling (a MicroEngine context signalling
    the StrongARM that a packet is queued, section 3.6) and as the hungry
    half of {!Mailbox}. *)

type t

val create : int -> t
(** [create n] is a semaphore with [n] initial permits ([n >= 0]). *)

val acquire : t -> unit
(** [acquire s] (inside a fiber) takes a permit, blocking FIFO if none. *)

val try_acquire : t -> bool
(** [try_acquire s] takes a permit without blocking; false if none. *)

val release : t -> unit
(** [release s] adds a permit, waking the oldest blocked fiber if any. *)
