type t = {
  clock : Sim.Engine.Clock.clock;
  core : Sim.Server.t;
  mutable instructions : int;
}

let create engine clock =
  { clock; core = Sim.Server.create engine; instructions = 0 }

(* Every form books the core as of virtual time [now] and returns the
   requester's delay instead of waiting (see {!Sim.Server.book_i}); the
   caller pays it and then {!retire}s the instructions, so a
   per-operation caller counts them only once the delay has elapsed. *)
let exec t ~now n =
  if n <= 0 then 0
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock n in
    Sim.Server.book_i t.core ~now ~occupancy:d ~latency:d
  end

(* [exec_wait me ~now ~instr ~wait] fuses "run [instr] instructions, then
   sleep [wait] cycles off-core" into one server booking: occupancy is
   the instruction time only (the core is free during the sleep), while
   the caller is delayed by instructions + sleep.  With the server's
   start = max(busy_until, now) semantics this is timing-identical to
   exec-then-wait in every contention case, in half the events. *)
let exec_wait t ~now ~instr ~wait =
  let w = if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0 in
  if instr <= 0 then w
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock instr in
    Sim.Server.book_i t.core ~now ~occupancy:d ~latency:(d + w)
  end

(* Light form for token/lock-held serial sections under per-batch
   charging: busy-time accounting without touching the core's busy
   horizon, so the hold never queues behind sibling contexts'
   whole-burst bookings (see {!Sim.Server.record_i}). *)
let exec_wait_light t ~instr ~wait =
  let w = if wait > 0 then Sim.Engine.Clock.ps_of_cycles_i t.clock wait else 0 in
  if instr <= 0 then w
  else begin
    let d = Sim.Engine.Clock.ps_of_cycles_i t.clock instr in
    Sim.Server.record_i t.core ~occupancy:d;
    d + w
  end

let retire t n = if n > 0 then t.instructions <- t.instructions + n

let instructions t = t.instructions
let busy_time t = Sim.Server.busy_time t.core

let register_telemetry scope t =
  Telemetry.Scope.gauge_int scope "instructions" (fun () -> t.instructions);
  Telemetry.Scope.gauge_int scope "busy_ps" (fun () ->
      Int64.to_int (busy_time t))
