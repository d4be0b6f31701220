type t = {
  engine : Sim.Engine.t;
  clock : Sim.Engine.Clock.clock;
  timing : Config.mem_timing;
  server : Sim.Server.t;
  (* Per-operation costs in native-int picoseconds, computed once: the
     transfer loop issues one server access per unit operation and must
     not redo cycle conversion (or box an int64) per operation. *)
  occupancy_ps : int;
  read_ps : int;
  write_ps : int;
  mutable ops : int;
  mutable faults : Fault.Injector.t option;
}

let create engine clock timing =
  {
    engine;
    clock;
    timing;
    server = Sim.Server.create engine;
    occupancy_ps = Sim.Engine.Clock.ps_of_cycles_i clock timing.occupancy_cycles;
    read_ps = Sim.Engine.Clock.ps_of_cycles_i clock timing.read_cycles;
    write_ps = Sim.Engine.Clock.ps_of_cycles_i clock timing.write_cycles;
    ops = 0;
    faults = None;
  }

let set_faults t inj = t.faults <- Some inj

let read_ops t ~bytes =
  if bytes <= 0 then 0 else (bytes + t.timing.unit_bytes - 1) / t.timing.unit_bytes

(* The zero-fault burst, booked as of virtual time [now]; callers must
   check {!bookable}.  The unit operations pipeline back to back on the
   bus (Table 2 charges [occupancy_cycles] of bus time per unit), so a
   burst of [n] units occupies the channel for [n * occupancy] and the
   last unit completes its fill latency one occupancy slot after the
   previous one: total latency [latency + (n-1) * occupancy].  Queueing
   behind a busy channel is identical to issuing the units one by one —
   the server serializes on its busy horizon either way — so only the
   event count changes, not the timing.  Returns the requester's delay;
   counts nothing. *)
let transfer_booked t ~now ~bytes ~latency_ps =
  let n = read_ops t ~bytes in
  if n = 0 then 0
  else
    Sim.Server.book_i t.server ~now
      ~occupancy:(n * t.occupancy_ps)
      ~latency:(latency_ps + ((n - 1) * t.occupancy_ps))

let transfer t ~bytes ~latency_ps =
  let n = read_ops t ~bytes in
  match t.faults with
  | None ->
      (* Zero-fault path: the booked burst, paid at once. *)
      if n > 0 then begin
        let e = t.engine in
        Sim.Engine.wait_in e
          (transfer_booked t ~now:(Sim.Engine.clock_i e) ~bytes ~latency_ps);
        t.ops <- t.ops + n
      end
  | Some inj ->
      for _ = 1 to n do
        if Fault.Injector.fires inj Mem_drop then
          (* The operation vanishes: no bus time, no completion. *)
          ()
        else begin
          let latency =
            if Fault.Injector.fires inj Mem_delay then
              latency_ps
              + Sim.Engine.Clock.ps_of_cycles_i t.clock
                  (Fault.Injector.scenario inj).Fault.Scenario.mem_delay_cycles
            else latency_ps
          in
          Sim.Server.access_i t.server ~occupancy:t.occupancy_ps
            ~latency;
          t.ops <- t.ops + 1
        end
      done

let read t ~bytes = transfer t ~bytes ~latency_ps:t.read_ps
let write t ~bytes = transfer t ~bytes ~latency_ps:t.write_ps
let bookable t = t.faults = None
let read_booked t ~now ~bytes = transfer_booked t ~now ~bytes ~latency_ps:t.read_ps
let write_booked t ~now ~bytes = transfer_booked t ~now ~bytes ~latency_ps:t.write_ps
let complete t ~bytes = t.ops <- t.ops + read_ops t ~bytes

let server t = t.server
let ops_completed t = t.ops
