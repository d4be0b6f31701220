type t = { charge_ps : int; mutable uses : int }

let create clock ~cycles =
  { charge_ps = Sim.Engine.Clock.ps_of_cycles_i clock cycles; uses = 0 }

(* The unit models the hardware cost only: no call site uses a hash
   value (the fast-path classifier hashes the destination only to pay
   for it), so a charge counts the use and returns the latency for the
   caller to pay. *)
let charge t =
  t.uses <- t.uses + 1;
  t.charge_ps

let uses t = t.uses
