(* The paper's queues are circular arrays in SRAM; this one is a
   circular array too, because it sits on the per-packet path of every
   discipline — a pointer-chasing queue would allocate a cell per
   descriptor.  The backing array is sized to the capacity (rounded to a
   power of two for mask indexing) and allocated on the first push, when
   a descriptor exists to seed the slots with. *)
type t = {
  name : string;
  capacity : int;
  mask : int;
  mutable arr : Desc.t array; (* [||] until first push *)
  mutable head : int;
  mutable len : int;
  mutex : Sim.Mutex.t;
  mutable enqueued : int;
  mutable dequeued : int;
  mutable dropped : int;
  mutable peak : int;
  (* Parked consumers, all fired (and cleared) on the next successful
     push.  Lets output contexts sleep on an empty queue instead of
     polling; producers need no wiring — [push] fires them internally.
     Wake-all with consumer-side re-check: several contexts may share a
     queue, and a single overwritable cell would lose wakeups. *)
  mutable waiters : (unit -> unit) list;
}

let create ?(name = "queue") ~capacity () =
  if capacity <= 0 then invalid_arg "Squeue.create: capacity";
  let cap_pow2 =
    let c = ref 1 in
    while !c < capacity do
      c := !c * 2
    done;
    !c
  in
  {
    name;
    capacity;
    mask = cap_pow2 - 1;
    arr = [||];
    head = 0;
    len = 0;
    mutex = Sim.Mutex.create ~name:(name ^ ".mutex") ();
    enqueued = 0;
    dequeued = 0;
    dropped = 0;
    peak = 0;
    waiters = [];
  }

let name q = q.name

let push q d =
  if q.len >= q.capacity then begin
    q.dropped <- q.dropped + 1;
    false
  end
  else begin
    if Array.length q.arr = 0 then q.arr <- Array.make (q.mask + 1) d;
    Array.unsafe_set q.arr ((q.head + q.len) land q.mask) d;
    q.len <- q.len + 1;
    q.enqueued <- q.enqueued + 1;
    if q.len > q.peak then q.peak <- q.len;
    (match q.waiters with
    | [] -> ()
    | ws ->
        q.waiters <- [];
        List.iter (fun w -> w ()) ws);
    true
  end

let add_waiter q w = q.waiters <- w :: q.waiters

let pop q =
  if q.len = 0 then None
  else begin
    let d = Array.unsafe_get q.arr q.head in
    q.head <- (q.head + 1) land q.mask;
    q.len <- q.len - 1;
    q.dequeued <- q.dequeued + 1;
    Some d
  end

(* Option-free pop for callers that have already checked [length q > 0]
   — the [Some d] of [pop] is two words per forwarded packet. *)
let pop_nonempty q =
  if q.len = 0 then invalid_arg (q.name ^ ": pop_nonempty on empty queue");
  let d = Array.unsafe_get q.arr q.head in
  q.head <- (q.head + 1) land q.mask;
  q.len <- q.len - 1;
  q.dequeued <- q.dequeued + 1;
  d

let length q = q.len
let is_empty q = q.len = 0
let mutex q = q.mutex
let dropped q = q.dropped
let peak_length q = q.peak

let check q =
  if q.len > q.capacity then
    Some
      (Printf.sprintf "%s: depth %d exceeds capacity %d" q.name q.len
         q.capacity)
  else if q.enqueued <> q.dequeued + q.len then
    Some
      (Printf.sprintf "%s: enqueued %d <> dequeued %d + depth %d" q.name
         q.enqueued q.dequeued q.len)
  else None

let register_telemetry scope q =
  let g = Telemetry.Scope.gauge_int scope in
  g "depth" (fun () -> q.len);
  g "peak_depth" (fun () -> q.peak);
  g "enqueued" (fun () -> q.enqueued);
  g "dequeued" (fun () -> q.dequeued);
  g "dropped" (fun () -> q.dropped);
  g "mutex_contended" (fun () -> Sim.Mutex.contended_acquires q.mutex)
