type t = {
  engine : Sim.Engine.t;
  bus : Sim.Server.t;
  ps_per_byte : float;
  pio_read_ps : int;
  pio_write_ps : int;
}

let create engine (cfg : Config.t) =
  {
    engine;
    bus = Sim.Server.create engine;
    ps_per_byte = 1e12 /. (cfg.pci_mbytes_per_s *. 1e6);
    pio_read_ps = Int64.to_int (Sim.Engine.ps_of_ns cfg.pci_pio_read_ns);
    pio_write_ps = Int64.to_int (Sim.Engine.ps_of_ns cfg.pci_pio_write_ns);
  }

let transfer_ps t ~bytes = int_of_float (float_of_int bytes *. t.ps_per_byte)

let pio_read t =
  (* The processor stalls for the full round trip; the bus itself is only
     held for the small transaction. *)
  Sim.Server.access_i t.bus ~occupancy:(transfer_ps t ~bytes:8)
    ~latency:t.pio_read_ps

let pio_write t =
  Sim.Server.access_i t.bus ~occupancy:(transfer_ps t ~bytes:8)
    ~latency:t.pio_write_ps

(* DMA bursts occupy the bus in 256-byte chunks so that concurrent PIO
   transactions (I2O queue manipulation) interleave with long packet
   transfers instead of stalling behind them. *)
let dma_chunk = 256

let dma_blocking t ~bytes =
  let rec go remaining =
    if remaining > 0 then begin
      let n = min dma_chunk remaining in
      let d = transfer_ps t ~bytes:n in
      Sim.Server.access_i t.bus ~occupancy:d ~latency:d;
      go (remaining - n)
    end
  in
  go bytes

let dma_async t ~bytes ~on_done =
  Sim.Engine.spawn t.engine "pci-dma" (fun () ->
      dma_blocking t ~bytes;
      on_done ())

let pio_read_ps t = t.pio_read_ps
let pio_write_ps t = t.pio_write_ps
