type mem_timing = {
  unit_bytes : int;
  read_cycles : int;
  write_cycles : int;
  occupancy_cycles : int;
}

type t = {
  me_mhz : float;
  pentium_mhz : float;
  n_microengines : int;
  contexts_per_me : int;
  dram : mem_timing;
  sram : mem_timing;
  scratch : mem_timing;
  buffer_count : int;
  istore_slots : int;
  istore_ri_slots : int;
  istore_write_cycles_per_instr : int;
  hash_cycles : int;
  token_pass_cycles : int;
  pci_mbytes_per_s : float;
  pci_pio_read_ns : float;
  pci_pio_write_ns : float;
  pci_dma_setup_cycles : int;
  port_rx_slots : int;
}

let default =
  {
    me_mhz = 200.;
    pentium_mhz = 733.;
    n_microengines = 6;
    contexts_per_me = 4;
    (* Table 3.  Occupancies derive from the raw data paths: DRAM moves
       8 B per 100 MHz bus cycle (2 ME cycles), SRAM 4 B, Scratch is
       on-chip. *)
    dram = { unit_bytes = 32; read_cycles = 52; write_cycles = 40; occupancy_cycles = 8 };
    sram = { unit_bytes = 4; read_cycles = 22; write_cycles = 22; occupancy_cycles = 2 };
    scratch = { unit_bytes = 4; read_cycles = 16; write_cycles = 20; occupancy_cycles = 1 };
    buffer_count = 8192;
    istore_slots = 1024;
    istore_ri_slots = 374; (* leaves the paper's 650 for the VRP *)
    istore_write_cycles_per_instr = 80;
    hash_cycles = 1;
    token_pass_cycles = 1;
    pci_mbytes_per_s = 133.;
    pci_pio_read_ns = 500.;
    pci_pio_write_ns = 100.;
    pci_dma_setup_cycles = 95;
    port_rx_slots = 512;
  }

let place c ~first_me n =
  let cpm = c.contexts_per_me in
  let mes = (n + cpm - 1) / cpm in
  (Array.init n (fun i -> ((first_me + (i mod mes)) * cpm) + (i / mes)), mes)

let me_clock c = Sim.Engine.Clock.of_mhz c.me_mhz
let pentium_clock c = Sim.Engine.Clock.of_mhz c.pentium_mhz
