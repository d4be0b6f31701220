(* Receive-side port memory is a preallocated ring of MP slots rather
   than a linked queue: one frame fans out into up to rx_slots entries
   per arrival, and the input contexts drain it in bursts, so this is a
   per-MP hot path on both sides.  Each entry is
   an int (index lsl 2 lor tag code) plus the frame reference, held in
   parallel arrays. *)
type t = {
  id : int;
  engine : Sim.Engine.t; (* the transmit pacing clock *)
  mbps : float;
  rx_slots : int;
  r_meta : int array;
  r_fr : Packet.Frame.t array;
  r_mask : int;
  mutable r_head : int;
  mutable r_len : int;
  dummy : Packet.Frame.t;
  mutable sink : Packet.Frame.t -> unit;
  mutable sink_present : bool;
  (* A borrowing sink consumes the frame synchronously during the call
     and never retains it (the router's internal digest/counter sinks),
     so [transmit_frame] can lend the DRAM buffer instead of paying a
     [prefix_copy] per packet.  Cleared by [set_sink]: an external sink
     may hold the frame past the call, and the buffer is recycled. *)
  mutable sink_borrows : bool;
  mutable tx_horizon : int; (* ps: when the wire finishes what it has *)
  wire_mid : int; (* ps on the wire for a non-final MP *)
  wire_last : int; (* ps for the final MP incl. preamble + gap *)
  mutable rx_frames : int;
  mutable rx_dropped : int;
  mutable rx_lost : int;
  mutable tx_frames : int;
  mutable faults : Fault.Injector.t option;
  mutable link_up : bool;
  mutable rx_link_down : int;
  mutable tx_link_down : int;
  (* Upstream transmit gate (e.g. a full fabric queue behind this port):
     while closed, pacing reports the wire busy so the output loop holds
     frames in its own queues instead of pushing into the congested hop.
     [None] keeps the hot path branch-predictable for ordinary ports. *)
  mutable tx_gate : (unit -> bool) option;
  mutable tx_gated : int;
  (* Parked input contexts waiting for this port to become non-empty.
     One waiter is woken per accepted frame (not per MP): a frame is the
     unit of new work, and waking every parked context per MP would
     thundering-herd the token ring.  A stack (array + length) rather
     than a list: the wakers are the contexts' permanent park-cell
     closures, so registration is a store, not a cons — this runs once
     per idle park on the per-frame path.  LIFO order matches the old
     cons/pop-head list exactly. *)
  mutable rx_waiters : (unit -> unit) array;
  mutable rx_waiters_len : int;
}

let mp_wire_ps ~mbps ~bytes =
  Int64.to_int (Int64.of_float (float_of_int (bytes * 8) /. mbps *. 1e6))

let create engine ~id ~mbps ~rx_slots ?sink () =
  let cap =
    let c = ref 1 in
    while !c < rx_slots do
      c := !c * 2
    done;
    !c
  in
  let dummy = Packet.Frame.of_bytes Bytes.empty in
  let sink_present, sink =
    match sink with None -> (false, fun _ -> ()) | Some s -> (true, s)
  in
  {
    id;
    engine;
    mbps;
    rx_slots;
    r_meta = Array.make cap 0;
    r_fr = Array.make cap dummy;
    r_mask = cap - 1;
    r_head = 0;
    r_len = 0;
    dummy;
    sink;
    sink_present;
    sink_borrows = false;
    tx_horizon = 0;
    wire_mid = mp_wire_ps ~mbps ~bytes:Packet.Mp.size;
    wire_last = mp_wire_ps ~mbps ~bytes:(Packet.Mp.size + 20);
    rx_frames = 0;
    rx_dropped = 0;
    rx_lost = 0;
    tx_frames = 0;
    faults = None;
    link_up = true;
    rx_link_down = 0;
    tx_link_down = 0;
    tx_gate = None;
    tx_gated = 0;
    rx_waiters = Array.make 4 ignore;
    rx_waiters_len = 0;
  }

let id t = t.id
let mbps t = t.mbps

let set_sink t f =
  t.sink <- f;
  t.sink_present <- true;
  t.sink_borrows <- false

let set_sink_borrows t b = t.sink_borrows <- b

let set_faults t inj = t.faults <- Some inj
let link_up t = t.link_up
let set_link_up t up = t.link_up <- up
let set_tx_gate t g = t.tx_gate <- Some g

let tx_gate_open t =
  match t.tx_gate with
  | None -> true
  | Some g ->
      let open_ = g () in
      if not open_ then t.tx_gated <- t.tx_gated + 1;
      open_

(* What the wire actually delivered, faults applied: [None] means the
   frame was lost outright. *)
let wire_damage t f =
  match t.faults with
  | None -> Some f
  | Some inj ->
      if Fault.Injector.mac_frame_lost inj then None
      else if Fault.Injector.fires inj Mac_garbage then
        Some (Fault.Injector.garbage_frame inj f)
      else if Fault.Injector.fires inj Mac_truncate then
        Some (Fault.Injector.truncate_frame inj f)
      else if Fault.Injector.fires inj Mac_corrupt then
        Some (Fault.Injector.corrupt_frame inj f)
      else Some f

let offer_clean t f =
  let n = Packet.Mp.count (Packet.Frame.len f) in
  if t.r_len + n > t.rx_slots then begin
    t.rx_dropped <- t.rx_dropped + 1;
    false
  end
  else begin
    let tail = t.r_head + t.r_len in
    for index = 0 to n - 1 do
      (* Tag codes: 0 = Only, 1 = First, 2 = Intermediate, 3 = Last. *)
      let code =
        if n = 1 then 0
        else if index = 0 then 1
        else if index = n - 1 then 3
        else 2
      in
      let p = (tail + index) land t.r_mask in
      Array.unsafe_set t.r_meta p ((index lsl 2) lor code);
      Array.unsafe_set t.r_fr p f
    done;
    t.r_len <- t.r_len + n;
    t.rx_frames <- t.rx_frames + 1;
    (if t.rx_waiters_len > 0 then begin
       let i = t.rx_waiters_len - 1 in
       t.rx_waiters_len <- i;
       t.rx_waiters.(i) ()
     end);
    true
  end

let offer t f =
  if not t.link_up then begin
    t.rx_link_down <- t.rx_link_down + 1;
    false
  end
  else
    match t.faults with
    | None -> offer_clean t f (* no injector: skip the [Some f] box *)
    | Some _ -> (
        match wire_damage t f with
        | None ->
            t.rx_lost <- t.rx_lost + 1;
            false
        | Some f -> offer_clean t f)

(* Park a context until this port has receive work.  Fires immediately
   when MPs are already queued, so the usual pattern
   [Engine.suspend (fun w -> park_rx port w)] never misses work that
   arrived between the caller's check and the suspension. *)
let park_rx t w =
  if t.r_len > 0 then w ()
  else begin
    let n = t.rx_waiters_len in
    if n = Array.length t.rx_waiters then begin
      let bigger = Array.make (2 * n) ignore in
      Array.blit t.rx_waiters 0 bigger 0 n;
      t.rx_waiters <- bigger
    end;
    t.rx_waiters.(n) <- w;
    t.rx_waiters_len <- n + 1
  end

let tag_of_code =
  [| Packet.Mp.Only; Packet.Mp.First; Packet.Mp.Intermediate; Packet.Mp.Last |]

(* Burst drain into caller-provided parallel arrays (the carrier is a
   Batch.t upstream; taking raw arrays here keeps this library free of
   core types).  Copies raw meta words — (index lsl 2) lor tag code —
   straight out of the ring: no per-MP allocation.  MPs of one frame
   are contiguous in the ring, so a burst takes whole frames in order,
   possibly splitting the last frame's tail MPs into the next burst. *)
let take_burst t ~meta ~frames ~max:max_mps =
  let cap = min (Array.length meta) (Array.length frames) in
  let n = min t.r_len (min max_mps cap) in
  if n > 0 then begin
    let h = ref t.r_head in
    for i = 0 to n - 1 do
      Array.unsafe_set meta i (Array.unsafe_get t.r_meta !h);
      Array.unsafe_set frames i (Array.unsafe_get t.r_fr !h);
      Array.unsafe_set t.r_fr !h t.dummy;
      h := (!h + 1) land t.r_mask
    done;
    t.r_head <- !h;
    t.r_len <- t.r_len - n
  end;
  n

let tag_of_meta m = Array.unsafe_get tag_of_code (m land 3)
let index_of_meta m = m lsr 2

let frame_time_ps t ~bytes =
  (* Preamble+SFD (8) and minimum inter-frame gap (12) per IEEE 802.3. *)
  let wire_bits = float_of_int ((bytes + 20) * 8) in
  Int64.of_float (wire_bits /. t.mbps *. 1e6)

(* An MP occupies the wire for its 64 bytes; the frame's final MP also
   carries the preamble + inter-frame-gap overhead (20 bytes).  One MP of
   headroom: accept while the wire is at most one MP ahead.  Int-coded
   so the output loop's per-MP call allocates nothing: -1 reserves the
   slot, any other value is the strictly positive wait in ps. *)
let tx_try_pace t ~last =
  if not (tx_gate_open t) then t.wire_last
  else begin
    let wire = if last then t.wire_last else t.wire_mid in
    let now = Sim.Engine.clock_i t.engine in
    if t.tx_horizon - now > wire then t.tx_horizon - (now + wire)
    else begin
      t.tx_horizon <- (if t.tx_horizon > now then t.tx_horizon else now) + wire;
      -1
    end
  end

(* The whole-frame transmit path the output loop uses: the frame already
   sits assembled in DRAM, so "reassembling" its MPs is a copy of the
   bytes the caller still holds — performed only when someone is
   listening on the wire. *)
let transmit_frame t frame ~len =
  if not t.link_up then t.tx_link_down <- t.tx_link_down + 1
  else begin
    t.tx_frames <- t.tx_frames + 1;
    if t.sink_present then
      if t.sink_borrows && Packet.Frame.len frame = len then t.sink frame
      else t.sink (Packet.Frame.prefix_copy frame ~len)
  end

let rx_frames t = t.rx_frames
let tx_gated t = t.tx_gated
let rx_link_down t = t.rx_link_down
let tx_link_down t = t.tx_link_down
let rx_dropped t = t.rx_dropped
let rx_lost t = t.rx_lost
let tx_frames t = t.tx_frames
