type host = Me of Ixp.Microengine.t | Cpu of Sim.Engine.Clock.clock

type t = {
  chip : Ixp.Chip.t;
  host : host;
  ctx_id : int;
  mutable defer : bool;
  mutable pending : int; (* booked-but-unpaid delay, picoseconds *)
}

let make chip ~ctx_id =
  {
    chip;
    host = Me (Ixp.Chip.context_me chip ctx_id);
    ctx_id;
    defer = false;
    pending = 0;
  }

let make_cpu chip clock =
  { chip; host = Cpu clock; ctx_id = -1; defer = false; pending = 0 }

(* Per-batch charging: with [defer] on, every charge below books its
   server access at the context's *virtual* clock (engine time plus
   delays already booked) and accumulates the delay instead of
   suspending; [commit] pays the whole batch as one wait.  Charges that
   cannot be booked (fault-injected memory channels need their
   one-by-one issue sequence) commit first, so the full ordering
   degenerates to the classic per-operation path exactly when the fault
   plane is watching. *)
let set_defer t on = t.defer <- on

let engine t = t.chip.Ixp.Chip.engine
let vnow t = Sim.Engine.clock_i (engine t) + t.pending

let commit t =
  if t.pending > 0 then begin
    let d = t.pending in
    t.pending <- 0;
    Sim.Engine.wait_in (engine t) d
  end

let now_ps t = Int64.of_int (vnow t)
let now_ps_i = vnow

let exec t n =
  match t.host with
  | Me me ->
      if t.defer then
        t.pending <- t.pending + Ixp.Microengine.exec_booked me ~now:(vnow t) n
      else Ixp.Microengine.exec me n
  | Cpu clock -> Sim.Engine.Clock.wait_cycles (engine t) clock n

let exec_wait t ~instr ~wait =
  match t.host with
  | Me me ->
      if t.defer then
        t.pending <-
          t.pending + Ixp.Microengine.exec_wait_booked me ~now:(vnow t) ~instr ~wait
      else Ixp.Microengine.exec_wait me ~instr ~wait
  | Cpu clock -> Sim.Engine.Clock.wait_cycles (engine t) clock (instr + wait)

(* Variant for charges made while holding the token (the input DMA / output
   FIFO serial sections): under per-batch charging these must not queue on
   the core's busy horizon — sibling contexts book whole bursts there, and
   inheriting a burst-sized queue delay while holding the token would
   serialize the entire ring behind it.  The work is still accounted
   (instructions, busy time); only the horizon queueing is skipped. *)
let exec_wait_serial t ~instr ~wait =
  match t.host with
  | Me me when t.defer ->
      t.pending <- t.pending + Ixp.Microengine.exec_wait_light me ~instr ~wait
  | Me _ | Cpu _ -> exec_wait t ~instr ~wait

let wait_cycles t n =
  let clock =
    match t.host with Me _ -> t.chip.Ixp.Chip.me_clock | Cpu clock -> clock
  in
  if t.defer && n > 0 then
    t.pending <- t.pending + Sim.Engine.Clock.ps_of_cycles_i clock n
  else Sim.Engine.Clock.wait_cycles (engine t) clock n

let mem_op t m booked plain ~bytes =
  if t.defer && Ixp.Mem.bookable m then
    t.pending <- t.pending + booked m ~now:(vnow t) ~bytes
  else begin
    commit t;
    plain m ~bytes
  end

let sram_read t ~bytes =
  mem_op t t.chip.Ixp.Chip.sram Ixp.Mem.read_booked Ixp.Mem.read ~bytes

let sram_write t ~bytes =
  mem_op t t.chip.Ixp.Chip.sram Ixp.Mem.write_booked Ixp.Mem.write ~bytes

let scratch_read t ~bytes =
  mem_op t t.chip.Ixp.Chip.scratch Ixp.Mem.read_booked Ixp.Mem.read ~bytes

let scratch_write t ~bytes =
  mem_op t t.chip.Ixp.Chip.scratch Ixp.Mem.write_booked Ixp.Mem.write ~bytes

let dram_read t ~bytes =
  mem_op t t.chip.Ixp.Chip.dram Ixp.Mem.read_booked Ixp.Mem.read ~bytes

let dram_write t ~bytes =
  mem_op t t.chip.Ixp.Chip.dram Ixp.Mem.write_booked Ixp.Mem.write ~bytes

let hash t v =
  if t.defer then begin
    let d, h = Ixp.Hash_unit.hash_booked t.chip.Ixp.Chip.hash v in
    t.pending <- t.pending + d;
    h
  end
  else Ixp.Hash_unit.hash t.chip.Ixp.Chip.hash v

let hash_charge t =
  if t.defer then
    t.pending <- t.pending + Ixp.Hash_unit.charge_booked t.chip.Ixp.Chip.hash
  else Ixp.Hash_unit.charge t.chip.Ixp.Chip.hash
