(** Binary min-heap of timestamped events: the timing wheel's far tier.

    Events are ordered by [(time, seq)] where [seq] is a strictly
    increasing insertion counter, so two events scheduled for the same
    instant fire in insertion order.  This is what makes the whole
    simulation deterministic.

    The heap holds on to nothing it has handed out: every slot it is not
    using holds the [vacant] value given at {!create}. *)

type 'a t

val create : vacant:'a -> 'a t
(** [create ~vacant] is an empty heap whose unused slots hold [vacant]
    (a constant: it should capture nothing). *)

val is_empty : 'a t -> bool
(** [is_empty h] is true iff [h] holds no events. *)

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** [push h ~time ~seq v] queues [v] at key [(time, seq)].  Allocates
    only when the heap grows. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the event with the smallest key. *)

val min_time : 'a t -> int
(** [min_time h] is the key time of the next event, or [max_int] when
    [h] is empty. *)

val peek : 'a t -> (int * int) option
(** [peek h] is the full [(time, seq)] key of the next event. *)
