type host = Me of Ixp.Microengine.t | Cpu of Sim.Engine.Clock.clock

type t = {
  chip : Ixp.Chip.t;
  host : host;
  mutable defer : bool;
  mutable pending : int; (* booked-but-unpaid delay, picoseconds *)
}

let make chip ~ctx_id =
  {
    chip;
    host = Me (Ixp.Chip.context_me chip ctx_id);
    defer = false;
    pending = 0;
  }

let make_cpu chip clock =
  { chip; host = Cpu clock; defer = false; pending = 0 }

(* One charging rule.  Every unit books its cost at the context's
   virtual clock (engine time plus delays already booked) and returns
   the delay; [charge] adds it to [pending] and, unless [defer] is on,
   pays it at once.  Per-operation charging is booking paid at once;
   per-batch charging pays the whole batch as one wait at the next
   [commit].  Work is counted after [charge], so a per-operation
   context counts it only once the delay has elapsed.  A zero charge
   never waits: [commit] waits only on positive [pending].  Charges that
   cannot be booked (fault-injected memory channels need their
   one-by-one issue sequence) commit first and wait per unit, so the
   full ordering degenerates to the classic per-operation path exactly
   when the fault plane is watching. *)
let set_defer t on = t.defer <- on

let engine t = t.chip.Ixp.Chip.engine
let vnow t = Sim.Engine.clock_i (engine t) + t.pending

let commit_delay t =
  let d = t.pending in
  t.pending <- 0;
  d

let commit t =
  let d = commit_delay t in
  if d > 0 then Sim.Engine.wait_in (engine t) d

let charges_wait t =
  let c = t.chip in
  (not t.defer)
  || not
       (Ixp.Mem.bookable c.Ixp.Chip.sram
       && Ixp.Mem.bookable c.Ixp.Chip.scratch
       && Ixp.Mem.bookable c.Ixp.Chip.dram)

let charge t d =
  t.pending <- t.pending + d;
  if not t.defer then commit t

let now_ps_i = vnow

let cycles_ps clock n =
  if n > 0 then Sim.Engine.Clock.ps_of_cycles_i clock n else 0

let exec t n =
  match t.host with
  | Me me ->
      charge t (Ixp.Microengine.exec me ~now:(vnow t) n);
      Ixp.Microengine.retire me n
  | Cpu clock -> charge t (cycles_ps clock n)

let exec_wait t ~instr ~wait =
  match t.host with
  | Me me ->
      charge t (Ixp.Microengine.exec_wait me ~now:(vnow t) ~instr ~wait);
      Ixp.Microengine.retire me instr
  | Cpu clock -> charge t (cycles_ps clock (instr + wait))

(* Variant for charges made while holding the token (the input DMA / output
   FIFO serial sections): under per-batch charging these must not queue on
   the core's busy horizon — sibling contexts book whole bursts there, and
   inheriting a burst-sized queue delay while holding the token would
   serialize the entire ring behind it.  The work is still accounted
   (instructions, busy time); only the horizon queueing is skipped. *)
let exec_wait_serial t ~instr ~wait =
  match t.host with
  | Me me when t.defer ->
      charge t (Ixp.Microengine.exec_wait_light me ~instr ~wait);
      Ixp.Microengine.retire me instr
  | Me _ | Cpu _ -> exec_wait t ~instr ~wait

let wait_cycles t n =
  let clock =
    match t.host with Me _ -> t.chip.Ixp.Chip.me_clock | Cpu clock -> clock
  in
  charge t (cycles_ps clock n)

let mem_op t m booked waiting ~bytes =
  if Ixp.Mem.bookable m then begin
    charge t (booked m ~now:(vnow t) ~bytes);
    Ixp.Mem.complete m ~bytes
  end
  else begin
    commit t;
    waiting m ~bytes
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

let hash_charge t = charge t (Ixp.Hash_unit.charge t.chip.Ixp.Chip.hash)
