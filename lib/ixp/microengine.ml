type t = {
  id : int;
  engine : Sim.Engine.t;
  clock : Sim.Engine.Clock.clock;
  core : Sim.Server.t;
  mutable instructions : int;
}

let create engine clock ~id =
  {
    id;
    engine;
    clock;
    core = Sim.Server.create ~name:(Printf.sprintf "me%d" id) engine;
    instructions = 0;
  }

let id t = t.id

let exec t n =
  if n > 0 then begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock n in
    Sim.Server.access_i t.core ~occupancy:d ~latency:d;
    t.instructions <- t.instructions + n
  end

(* Booked variants: charge the core as of virtual time [now] and return
   the requester's delay instead of waiting (see {!Sim.Server.book_i}). *)
let exec_booked t ~now n =
  if n <= 0 then 0
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock n in
    t.instructions <- t.instructions + n;
    Sim.Server.book_i t.core ~now ~occupancy:d ~latency:d
  end

(* [exec_wait me ~instr ~wait] fuses "run [instr] instructions, then
   sleep [wait] cycles off-core" into one server access: occupancy is
   the instruction time only (the core is free during the sleep), while
   the caller blocks for instructions + sleep.  With Server.access's
   start = max(busy_until, now) semantics this is timing-identical to
   exec-then-wait in every contention case, in half the events. *)
let exec_wait t ~instr ~wait =
  if instr <= 0 then Sim.Engine.Clock.wait_cycles t.engine t.clock wait
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock instr in
    let w = if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0 in
    Sim.Server.access_i t.core ~occupancy:d ~latency:(d + w);
    t.instructions <- t.instructions + instr
  end

(* Light form for token/lock-held serial sections under per-batch
   charging: instruction and busy-time accounting without touching the
   core's busy horizon, so the hold never queues behind sibling
   contexts' whole-burst bookings (see {!Sim.Server.record_i}). *)
let exec_wait_light t ~instr ~wait =
  let w = if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0 in
  if instr <= 0 then w
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock instr in
    t.instructions <- t.instructions + instr;
    Sim.Server.record_i t.core ~occupancy:d;
    d + w
  end

let exec_wait_booked t ~now ~instr ~wait =
  if instr <= 0 then
    if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock instr in
    let w = if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0 in
    t.instructions <- t.instructions + instr;
    Sim.Server.book_i t.core ~now ~occupancy:d ~latency:(d + w)
  end

let instructions t = t.instructions
let busy_time t = Sim.Server.busy_time t.core

let register_telemetry scope t =
  Telemetry.Scope.gauge_int scope "instructions" (fun () -> t.instructions);
  Telemetry.Scope.gauge_int scope "busy_ps" (fun () ->
      Int64.to_int (busy_time t))
