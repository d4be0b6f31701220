type stats = {
  offered : Sim.Stats.Counter.t;
  accepted : Sim.Stats.Counter.t;
}

let spawn_with_gap engine ~name ~next_gap ~gen ~offer () =
  let stats =
    { offered = Sim.Stats.Counter.create (); accepted = Sim.Stats.Counter.create () }
  in
  Sim.Engine.spawn engine name (fun () ->
      let rec emit i =
        (* Eliding-capable wait: at line rate this is the single most
           frequent timer in the system, and when no other event falls
           inside the gap the source never needs the run queue. *)
        Sim.Engine.wait_in engine (Int64.to_int (next_gap ()));
        Sim.Stats.Counter.incr stats.offered;
        if offer (gen i) then Sim.Stats.Counter.incr stats.accepted;
        emit (i + 1)
      in
      emit 0);
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
