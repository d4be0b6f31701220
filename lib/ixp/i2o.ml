type 'a t = {
  pci : Pci.t;
  free : unit Sim.Mailbox.t;
  full : 'a Sim.Mailbox.t;
}

let create pci ~buffers () =
  if buffers <= 0 then invalid_arg "I2o.create: buffers";
  let free = Sim.Mailbox.create () in
  for _ = 1 to buffers do
    Sim.Mailbox.put free ()
  done;
  { pci; free = (free : unit Sim.Mailbox.t); full = Sim.Mailbox.create () }

(* Pull a free-buffer pointer: blocks when the pool is exhausted (consumer
   backpressure). *)
let acquire_free q = Sim.Mailbox.get q.free

let send_acquired q ~producer_clock ~bytes v =
  Pci.pio_read q.pci ~clock:producer_clock;
  (* Hand the payload to the DMA engine; the full-queue pointer push rides
     behind the data, concurrently with the producer. *)
  Pci.dma_async q.pci ~bytes ~on_done:(fun () -> Sim.Mailbox.put q.full v)

let recv q ~consumer_clock =
  let v = Sim.Mailbox.get q.full in
  Pci.pio_read q.pci ~clock:consumer_clock;
  (* Recycle the buffer with a posted write. *)
  Sim.Mailbox.put q.free ();
  Pci.pio_write q.pci ~clock:consumer_clock;
  v

let try_recv q ~consumer_clock =
  Pci.pio_read q.pci ~clock:consumer_clock;
  match Sim.Mailbox.try_get q.full with
  | None -> None
  | Some v ->
      Sim.Mailbox.put q.free ();
      Pci.pio_write q.pci ~clock:consumer_clock;
      Some v
