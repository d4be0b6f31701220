(* Horizons and accumulators are native ints (picoseconds): this is the
   single hottest call in the simulation — every memory-unit operation
   and every instruction burst lands here — and int64 fields would box
   on every update. *)
type t = {
  engine : Engine.t; (* the clock the busy horizon is packed from *)
  mutable busy_until : int;
  mutable busy_time : int;
}

let create engine = { engine; busy_until = 0; busy_time = 0 }

(* Book an access issued at virtual time [now] (engine time + delays the
   requester has already booked) without waiting: returns the delay the
   requester experiences; callers accumulate a batch of charges and pay
   the sum with one wait.

   The busy horizon is packed by occupancy from engine time — NOT placed
   at the requester's virtual clock.  Booking at [now] would embed the
   requester's latency gaps (time the server is idle while the requester
   waits on the round trip) into the horizon, and a burst of bookings
   would then charge *other* requesters for those idle gaps as queueing:
   whole bursts would serialize end-to-end through every shared server.
   Packing by occupancy keeps the server work-conserving — the horizon
   grows exactly by the work served, later bookings backfill the gaps —
   while a requester still queues whenever the packed horizon passes its
   own clock (the server genuinely has more work than time). *)
let book_i s ~now ~occupancy ~latency =
  let floor = Engine.clock_i s.engine in
  let base = if s.busy_until > floor then s.busy_until else floor in
  let qdelay = if base > now then base - now else 0 in
  s.busy_until <- base + occupancy;
  s.busy_time <- s.busy_time + occupancy;
  let visible = if latency > occupancy then latency else occupancy in
  qdelay + visible

(* Stats-only booking: account the work in [busy_time] without
   advancing the busy horizon.  For short sections executed while holding
   a shared token or lock, where queueing the charge behind other
   requesters' batch-granularity bookings would stretch the hold by whole
   foreign bursts (a convoy the per-operation path never forms). *)
let record_i s ~occupancy = s.busy_time <- s.busy_time + occupancy

let access_i s ~occupancy ~latency =
  let e = s.engine in
  Engine.wait_in e (book_i s ~now:(Engine.clock_i e) ~occupancy ~latency)

let access s ~occupancy ~latency =
  access_i s ~occupancy:(Int64.to_int occupancy) ~latency:(Int64.to_int latency)

let busy_time s = Int64.of_int s.busy_time

let utilization s ~total =
  if total = 0L then 0.
  else float_of_int s.busy_time /. Int64.to_float total
