(** Binary min-heap of timestamped events.

    The engine's run queue.  Events are ordered by [(time, seq)] where [seq]
    is a strictly increasing insertion counter, so two events scheduled for
    the same instant fire in insertion order.  This is what makes the whole
    simulation deterministic. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] is true iff [h] holds no events. *)

val push : 'a t -> time:int64 -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] queues [v] at key [(time, seq)]. *)

val pop : 'a t -> (int64 * int * 'a) option
(** [pop h] removes and returns the event with the smallest key. *)

val peek_time : 'a t -> int64 option
(** [peek_time h] is the key time of the next event without removing it. *)

val peek : 'a t -> (int64 * int) option
(** [peek h] is the full [(time, seq)] key of the next event. *)
