(** Input-side approximation of weighted fair queueing (paper section
    3.4.1).

    Output contexts drain their queues in fixed priority order — anything
    smarter would cost memory references the output loop cannot afford.
    The paper's suggestion: "the larger computing capacity available in
    input-side protocol processing could be used to select the appropriate
    priority queue and thereby approximate more complex schemes, such as
    weighted fair queuing."

    This module is that selector.  Each traffic class holds a share of the
    output link enforced by a token bucket replenished in simulated time:
    packets within their class's profile go to the high-priority queue,
    packets beyond it are demoted.  Under congestion the output's strict
    priority drain then serves classes in proportion to their shares —
    WFQ's property, approximated with two queues and O(1) register work
    per packet (a handful of instructions and one 4-byte SRAM state word,
    well inside the VRP budget). *)

type t

val create : link_pps:float -> shares:float array -> unit -> t
(** [create ~link_pps ~shares ()] serves [Array.length shares] classes on
    a link that drains [link_pps] packets per second.  Shares are
    normalized internally.  Each class's token bucket holds 16 packets. *)

val pick : t -> class_id:int -> now:int64 -> [ `High | `Low ]
(** [pick t ~class_id ~now] charges one packet against the class's bucket
    at simulated time [now] and says which priority queue it belongs in. *)

val vrp_code : Vrp.code
(** The declared per-packet cost of running the selector in the VRP:
    what admission control charges for it. *)

val demoted : t -> class_id:int -> int [@@test_only]
