type stats = {
  offered : Sim.Stats.Counter.t;
  accepted : Sim.Stats.Counter.t;
}

(* A source is a stepped context that never parks: each step offers
   the frame whose gap has just elapsed (none on the first) and returns
   the next gap.  The callback driver elides the wait whenever no other
   event falls inside the gap, so at line rate (the single most frequent
   timer in the system) an uncontended source never touches the run
   queue. *)
let spawn_with_gap engine ~name ~next_gap ~gen ~offer () =
  let stats =
    { offered = Sim.Stats.Counter.create (); accepted = Sim.Stats.Counter.create () }
  in
  let i = ref (-1) in
  Sim.Engine.start_steps (Sim.Engine.make_cell engine) name ~suspends:false
    (fun () ->
      let k = !i in
      if k >= 0 then begin
        Sim.Stats.Counter.incr stats.offered;
        if offer (gen k) then Sim.Stats.Counter.incr stats.accepted
      end;
      i := k + 1;
      Int64.to_int (next_gap ()));
  stats

let spawn_constant engine ~name ~pps ~gen ~offer () =
  if pps <= 0. then invalid_arg "Source.spawn_constant: pps";
  let gap = Sim.Engine.of_seconds (1. /. pps) in
  spawn_with_gap engine ~name ~next_gap:(fun () -> gap) ~gen ~offer ()

let line_rate_pps ~mbps ~frame_len =
  (* Preamble+SFD (8 bytes) and inter-frame gap (12 bytes). *)
  mbps *. 1e6 /. (float_of_int ((frame_len + 20) * 8))

(* The testbed's 141 of 148.8 Kpps. *)
let efficiency = 0.95

let spawn_line_rate engine ~name ~mbps ~frame_len ~gen ~offer () =
  let pps = efficiency *. line_rate_pps ~mbps ~frame_len in
  spawn_constant engine ~name ~pps ~gen ~offer ()
