(** A fixed-capacity carrier of received MPs, the unit of work of the
    batched input loop (Snabb's link-burst structure): one context
    activation drains a burst from the port, processes every MP, and
    enqueues the results, instead of paying the token + serial section
    per MP.

    Entries are (tag, index-within-frame, frame) triples stored as
    parallel arrays with {!Ixp.Mac_port}'s packed meta encoding — no
    per-MP allocation on refill. *)

type t

val create : capacity:int -> t
(** [create ~capacity] holds at most [capacity] MPs.  Capacity 1
    degenerates the batched loop to the classic one-MP-per-activation
    behavior. *)

val clear : t -> unit
(** Empty the batch and unpin all frame references. *)

val push : t -> tag:Packet.Mp.tag -> index:int -> Packet.Frame.t -> unit
(** Append one MP (used by replay sources; port refill goes through
    {!fill_from_port}).  Raises [Invalid_argument] when full. *)

val frame : t -> int -> Packet.Frame.t
val tag : t -> int -> Packet.Mp.tag

val is_head : t -> int -> bool
(** Is entry [i] a frame head (tag [Only] or [First])? *)

val fill_from_port : t -> Ixp.Mac_port.t -> max:int -> int
(** [fill_from_port b port ~max] clears [b] and drains up to
    [min max (capacity b)] MPs from [port]'s receive ring into it,
    returning the count. *)
