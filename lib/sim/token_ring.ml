(* Timestamps and accumulators are native-int picoseconds: two acquires
   and two releases run per forwarded packet, and int64 arithmetic here
   would allocate on each.

   The token is granted ON DEMAND rather than rotating through every
   slot unconditionally.  The original model required each member to
   keep spinning acquire/release just to move the token past its slot —
   a context parked on an empty port would stall the whole ring.  Here
   the token either rests at the slot of its last holder or travels
   directly to the next requester, paying [pass_ps] per slot of ring
   distance (the same per-hop signalling cost, charged only for hops
   actually traversed).  Grant order on release scans the ring forward
   from the releasing slot, which preserves the rotation fairness of the
   original order among contending members.  A virtual position still
   advances exactly one slot per release so the [rotations] fairness
   witness keeps its original meaning. *)
(* Nothing here suspends: a member asks with [request], and when the
   token is held elsewhere it parks by its own means (a stepped
   context's cell) with a registrar that calls [register].  [waiters]
   holds the members' stable wakers directly, with a physical-equality
   sentinel instead of an option, so registration never boxes. *)
let no_waiter : Engine.waker =
 fun () -> invalid_arg "Token_ring: sentinel waker fired"

type t = {
  name : string;
  engine : Engine.t; (* every member is a context of this engine *)
  pass_ps : int;
  n : int;
  claimed : bool array;
  waiters : Engine.waker array; (* [no_waiter] = empty slot *)
  mutable n_waiting : int; (* slots of [waiters] not [no_waiter] *)
  mutable pos : int; (* slot the token is parked at / travelling to *)
  mutable held : bool; (* true from grant (incl. in-flight) to release *)
  mutable available_at : int; (* pass-in-flight horizon *)
  mutable vpos : int; (* virtual strict-rotation position, stats only *)
  mutable hold_start : int;
  mutable rotations : int;
  mutable hold_time : int;
}

let create ?(name = "ring") ?(pass_ps = 0L) ~members engine =
  if members <= 0 then invalid_arg "Token_ring.create: members <= 0";
  {
    name;
    engine;
    pass_ps = Int64.to_int pass_ps;
    n = members;
    claimed = Array.make members false;
    waiters = Array.make members no_waiter;
    n_waiting = 0;
    pos = 0;
    held = false;
    available_at = 0;
    vpos = 0;
    hold_start = 0;
    rotations = 0;
    hold_time = 0;
  }

let join t idx =
  if idx < 0 || idx >= t.n then invalid_arg (t.name ^ ": slot out of range");
  if t.claimed.(idx) then invalid_arg (t.name ^ ": slot already claimed");
  t.claimed.(idx) <- true

(* Ring distance from [from_] forward to [to_].  Slot indices lie in
   [0, n), so one compare wraps it: no division on the per-packet
   path. *)
let hops t from_ to_ =
  let d = to_ - from_ in
  if d < 0 then d + t.n else d

(* The token may still be in flight toward its holder. *)
let arrival t =
  let d = t.available_at - Engine.clock_i t.engine in
  if d > 0 then d else 0

let hold t = t.hold_start <- Engine.clock_i t.engine

let request t idx =
  if not t.claimed.(idx) then invalid_arg (t.name ^ ": request before join");
  if not t.held then begin
    (* Token at rest: claim it and send it travelling here. *)
    t.held <- true;
    let h = hops t t.pos idx in
    t.pos <- idx;
    let now = Engine.clock_i t.engine in
    let base = if t.available_at > now then t.available_at else now in
    t.available_at <- base + (h * t.pass_ps);
    arrival t
  end
  else -1

let register t idx w =
  if t.waiters.(idx) != no_waiter then
    invalid_arg (t.name ^ ": slot requested twice concurrently");
  t.waiters.(idx) <- w;
  t.n_waiting <- t.n_waiting + 1

(* The first waiting slot in [s, stop), or -1.  An index, not an
   option or a tuple, and a top-level function, not a closure over the
   ring: granting is on the per-packet path. *)
let rec first_waiter t s stop =
  if s >= stop then -1
  else if t.waiters.(s) != no_waiter then s
  else first_waiter t (s + 1) stop

let release t idx =
  if not t.held then invalid_arg (t.name ^ ": release without hold");
  if t.pos <> idx then invalid_arg (t.name ^ ": release from wrong slot");
  let now = Engine.clock_i t.engine in
  t.hold_time <- t.hold_time + (now - t.hold_start);
  (* Virtual strict-rotation bookkeeping: one slot per release, exactly
     as the original rotating token advanced, so [rotations] keeps
     counting completed fairness rounds. *)
  let v = t.vpos + 1 in
  if v = t.n then begin
    t.vpos <- 0;
    t.rotations <- t.rotations + 1
  end
  else t.vpos <- v;
  (* Grant to the nearest waiter in ring order after this slot: scan
     [idx+1, n) then [0, idx), which visits slots in the order
     [(idx + k) mod n] for k = 1..n-1 without dividing, and not at all
     when nobody waits. *)
  let s =
    if t.n_waiting = 0 then -1
    else
      let s = first_waiter t (idx + 1) t.n in
      if s >= 0 then s else first_waiter t 0 idx
  in
  if s >= 0 then begin
    let w = t.waiters.(s) in
    t.waiters.(s) <- no_waiter;
    t.n_waiting <- t.n_waiting - 1;
    let h = hops t idx s in
    t.pos <- s;
    t.available_at <- now + (h * t.pass_ps);
    (* [held] stays true through the flight: the grantee owns it. *)
    w ()
  end
  else begin
    t.held <- false;
    t.available_at <- now
  end

let rotations t = t.rotations
let hold_time_total t = Int64.of_int t.hold_time
