(** Intelligent I/O (I2O) logical queues (paper section 3.7).

    "For each logical queue from the IXP1200 to the Pentium the
    implementation uses a pair of I2O hardware queues.  One queue contains
    pointers to empty buffers in Pentium memory, and the other contains
    pointers to full buffers."  (Due to a silicon bug the authors simulated
    the mechanism in software; we model the intended structure.)

    The producer pulls a free-buffer pointer (a blocking PIO read), starts
    a DMA of the payload, and the full-buffer pointer is pushed when the
    data has crossed the bus — producer-side work and the data transfer
    overlap.  The consumer pops full buffers and recycles them to the free
    queue.  A bounded buffer pool gives natural backpressure. *)

type 'a t

val create : Pci.t -> buffers:int -> unit -> 'a t
(** [create pci ~buffers ()] is a logical queue backed by [buffers]
    Pentium-memory buffers, all initially free. *)

(** A producer fiber sends in two halves: {!acquire_free} pulls a free
    pointer, then {!send_acquired} pays the producer's PIO + DMA setup and
    returns; the payload lands on the full queue asynchronously once its
    bytes have crossed the bus. *)

val acquire_free : 'a t -> unit
(** Wait for a free buffer (blocking while the consumer is behind) without
    charging anything: backpressure idle time, not busy time. *)

val send_acquired : 'a t -> bytes:int -> 'a -> unit
(** [send_acquired q ~bytes v], after {!acquire_free}
    returned: the charged half of a send. *)

val recv : 'a t -> 'a
(** [recv q] (inside the consumer fiber) blocks for the
    next full buffer, pays the consumer's PIO read, recycles the buffer to
    the free queue (posted write), and returns the payload. *)

val try_recv : 'a t -> 'a option
(** Non-blocking {!recv}: pays the PIO probe even when empty (that is what
    polling costs). *)
