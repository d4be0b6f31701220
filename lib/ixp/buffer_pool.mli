(** DRAM packet buffers (paper section 3.2.3).

    The paper's allocator divides 16 MB of DRAM into 8192 buffers of 2 KB,
    consumed circularly: "any given packet buffer remains valid for only
    one pass though the circular buffer list.  If a packet is not
    transmitted by the output process before its buffer is reused, the
    packet is effectively lost."  We model exactly that, with a generation
    number per handle so a stale read is detected (the packet was "lost")
    rather than silently corrupted.

    A buffer holds its frame only while the packet is in flight: {!alloc}
    stores it, and {!free} at transmit releases it in either mode (the
    circular cursor still moves on regardless; it releases a frame only
    for a packet that was never freed).  A pool therefore pins no frame
    that has left the wire.

    A per-port stack pool — the alternative the paper declined to build —
    is provided for the ablation benchmark. *)

type t

type handle = int
(** A reference to a buffer as enqueued in an SRAM queue: the slot index
    in the low bits, the generation above it (see {!handle_of}).  Packed
    into a native int so queues and descriptors carry it unboxed — the
    record form cost three words per packet. *)

val handle_of : index:int -> generation:int -> handle
(** [handle_of ~index ~generation] packs a handle (tests build synthetic
    handles with this; the pool itself is the only producer otherwise). *)

val handle_index : handle -> int [@@test_only]
val handle_generation : handle -> int [@@test_only]

val create_circular : count:int -> unit -> t
(** The paper's allocator. *)

val create_stack : count:int -> unit -> t
(** A free-list allocator; {!free} returns buffers for reuse. *)

val alloc : t -> Packet.Frame.t -> handle
(** [alloc pool frame] stores [frame] in the next buffer.  In circular
    mode this takes the oldest buffer whether or not its packet was
    freed, silently overwriting one still in flight.  In stack mode it
    raises [Failure] when empty. *)

val alloc_try : t -> Packet.Frame.t -> handle
(** {!alloc} returning a negative handle instead of raising [Failure]
    (injected allocation failure, or a dry stack pool) — the batched
    input loop's drop-one-frame path, with no option box on success. *)

exception Stale
(** Raised by {!get} when the buffer was freed or reused since the handle
    was created (a lost packet, or a read after transmit). *)

val get : t -> handle -> Packet.Frame.t
(** [get pool h] is the stored frame; raises {!Stale} (and counts a
    stale read) if the buffer was freed or reused since [h] was created.
    It never returns the empty slot or another packet's frame.  The
    allocation-free form of {!read}. *)

val read : t -> handle -> Packet.Frame.t option
(** [read pool h] is the stored frame, or [None] (counted as for {!get})
    if the buffer was freed or reused since [h] was created. *)

val free : t -> handle -> unit
(** [free pool h] releases [h]'s frame (to the {!set_release} hook) and
    empties the buffer, so [h] reads as {!Stale} from then on.  Stack
    mode also returns the buffer to the free list; circular mode leaves
    the cursor alone.  A stale or repeated [free] does nothing. *)

val overwrites : t -> int [@@test_only]
(** Circular mode: {!alloc}s that reused a buffer written before,
    whether or not its packet was freed first (generation laps).  A
    packet overwritten while still un-transmitted shows up as a stale
    {!read}. *)

val stale_reads : t -> int
(** Packets lost to buffer reuse. *)

val in_use : t -> int [@@test_only]
(** Stack mode: buffers currently allocated. *)

val count : t -> int [@@test_only]
(** Total buffers in the pool. *)

val set_release : t -> (Packet.Frame.t -> unit) -> unit
(** [set_release t f] calls [f frame] whenever the pool drops its last
    reference to a frame — a {!free} in either mode, or a circular
    {!alloc} overwriting a packet that was never freed — so an upstream
    {!Packet.Frame_pool} can recycle the storage.  Each stored frame is
    released at most once.  Counters ({!overwrites} included) behave
    identically with or without a hook installed. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Enable injected allocation failures: {!alloc} raises [Failure] with
    probability [pool_fail], in either mode — exercising every caller's
    out-of-buffers path. *)

val check : t -> string option
(** Conservation audit: in stack mode, slots holding a frame must equal
    {!in_use} and free + in-use must equal {!count}; in circular mode the
    cursor must lie inside the pool.  [Some detail] on violation. *)
