(** Hardware parameters of the IXP1200 evaluation system (paper section 2.2
    and Table 3), gathered in one overridable record.

    All cycle quantities are MicroEngine cycles (200 MHz, 5 ns).  The
    defaults reproduce the paper's measurements; benchmarks that probe
    sensitivity override individual fields. *)

type mem_timing = {
  unit_bytes : int;  (** bytes moved per operation (Table 3 transfer size) *)
  read_cycles : int;  (** requester-visible read latency per operation *)
  write_cycles : int;  (** requester-visible write latency per operation *)
  occupancy_cycles : int;  (** channel busy time per operation (bandwidth) *)
}

type t = {
  me_mhz : float;  (** MicroEngine / StrongARM clock (199.066 ~ 200 MHz) *)
  pentium_mhz : float;  (** host CPU clock (733 MHz) *)
  n_microengines : int;  (** 6 *)
  contexts_per_me : int;  (** 4 *)
  dram : mem_timing;  (** 64-bit x 100 MHz, 32-byte transfers *)
  sram : mem_timing;  (** 32-bit x 100 MHz, 4-byte transfers *)
  scratch : mem_timing;  (** 4 KB on-chip, 4-byte transfers *)
  buffer_count : int;  (** 8192 x 2 KB circular DRAM buffers *)
  istore_slots : int;  (** instructions per MicroEngine store *)
  istore_ri_slots : int;  (** slots consumed by the router infrastructure;
                              what remains (650) is the VRP's *)
  istore_write_cycles_per_instr : int;  (** 2 memory accesses ~ 80 cycles *)
  hash_cycles : int;  (** hardware hash unit latency *)
  token_pass_cycles : int;  (** inter-thread signal: 1 cycle, no memory *)
  pci_mbytes_per_s : float;  (** 32-bit x 33 MHz PCI: ~133 MB/s *)
  pci_pio_read_ns : float;  (** blocking register read across PCI *)
  pci_pio_write_ns : float;  (** posted register write *)
  pci_dma_setup_cycles : int;  (** StrongARM cycles to program one DMA *)
  port_rx_slots : int;  (** MPs of buffering in a MAC port's memory *)
}

val default : t
(** The paper's evaluation system. *)

val place : t -> first_me:int -> int -> int array * int
(** [place c ~first_me n] places a stage of [n] contexts on the fewest
    MicroEngines that hold them ([contexts_per_me] each), from engine
    [first_me] on, round-robin so that consecutive token holders sit on
    different engines (section 3.2.2; Figure 7's methodology).  Returns
    each context's global id, in token order, and the number of engines
    used. *)

val me_clock : t -> Sim.Engine.Clock.clock
val pentium_clock : t -> Sim.Engine.Clock.clock
