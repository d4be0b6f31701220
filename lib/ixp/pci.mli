(** The PCI path between the IXP1200 and the Pentium (paper section 3.7).

    Three cost carriers:
    - the shared 32-bit/33 MHz bus, a {!Sim.Server} whose occupancy encodes
      its ~133 MB/s bandwidth (what saturates on 1500-byte packets);
    - programmed-I/O register accesses (I2O queue head/tail manipulation),
      which stall the issuing processor for a full bus round trip;
    - the IXP's DMA engine, which moves packet data concurrently with the
      StrongARM ("the DMA engine runs concurrently with the StrongARM") —
      callers enqueue a transfer and continue. *)

type t

val create : Sim.Engine.t -> Config.t -> t

val pio_read : t -> unit
(** [pio_read t] (inside a fiber) performs one blocking register read
    across PCI. *)

val pio_write : t -> unit
(** A posted register write: cheaper, still occupies the bus briefly. *)

val dma_async : t -> bytes:int -> on_done:(unit -> unit) -> unit
(** [dma_async t ~bytes ~on_done] queues a DMA of [bytes]; [on_done] runs
    (in a fresh fiber) when the data has crossed the bus.  The caller does
    not block — that concurrency is the point. *)

val dma_blocking : t -> bytes:int -> unit [@@test_only]
(** Wait for a DMA to complete (used where the protocol cannot overlap). *)

val pio_read_ps : t -> int
(** The processor-visible stall of one {!pio_read} in picoseconds (busy
    accounting). *)

val pio_write_ps : t -> int
