type t = {
  engine : Sim.Engine.t;
  clock : Sim.Engine.Clock.clock;
  cycles : int;
  mutable uses : int;
}

let create engine clock ~cycles = { engine; clock; cycles; uses = 0 }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_free t v =
  ignore t;
  Int64.to_int (mix v) land max_int

let hash t v =
  t.uses <- t.uses + 1;
  Sim.Engine.Clock.wait_cycles t.engine t.clock t.cycles;
  hash_free t v

(* Booked form: count the use and return the charge in picoseconds for
   the caller to accumulate instead of waiting here. *)
let hash_booked t v =
  t.uses <- t.uses + 1;
  (Sim.Engine.Clock.ps_of_cycles_i t.clock t.cycles, hash_free t v)

(* Charge-only forms, for call sites that pay the unit's latency but
   discard the value (the fast-path classifier mixes the destination
   only to model the hardware cost): no [Int64] argument to box, no
   mixing work, identical timing and [uses] accounting. *)
let charge t =
  t.uses <- t.uses + 1;
  Sim.Engine.Clock.wait_cycles t.engine t.clock t.cycles

let charge_booked t =
  t.uses <- t.uses + 1;
  Sim.Engine.Clock.ps_of_cycles_i t.clock t.cycles

let uses t = t.uses
