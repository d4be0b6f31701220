(* The benchmark's own instrumentation, kept outside the program under
   test (no hooks in lib/):

   - frame stamps: every offered frame carries a sequence number in its
     last eight bytes, so the delivery callback can compute each packet's
     exact arrival-to-transmit latency and check that it arrived once,
     intact and on the right port;
   - in the traced run only, host-time and allocation accumulators and
     spans around the public calls each layer exposes (the generator, the
     port's [inject], [Router.default_process], the control-plane writes).

   Per-packet state lives in preallocated Bigarrays outside the OCaml
   heap, so the benchmark adds nothing to the program's [peak_heap_mb]
   and the untraced path allocates nothing per packet. *)

open Bigarray

type ints = (int, int_elt, c_layout) Array1.t

let ints n : ints =
  let a = Array1.create int c_layout n in
  Array1.fill a 0;
  a

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

(* {1 Stamps} *)

(* A frame's last eight bytes are Ethernet padding or payload, covered by
   no checksum the router verifies: [seq] (u32) then [magic ‖ source
   port] (u32).  Each source keeps [seq] and the offer time in a ring
   slot until the frame is delivered; 65536 slots is far more than can be
   in flight (at 141 Kpps a frame would have to sit in the router for
   0.46 s to be overwritten). *)
let ring_bits = 16
let ring_mask = (1 lsl ring_bits) - 1
let magic = 0xB5C0

type source = {
  port : int;  (** global input port *)
  seqs : ints;  (** sequence number in flight per slot; -1 once delivered *)
  sent : ints;  (** offer time per slot, simulated ps *)
  mutable next : int;
  mutable offered : int;
  mutable refused : int;  (** offers the port refused (port memory full) *)
}

let source port =
  let seqs = ints (1 lsl ring_bits) in
  Array1.fill seqs (-1);
  {
    port;
    seqs;
    sent = ints (1 lsl ring_bits);
    next = 0;
    offered = 0;
    refused = 0;
  }

let stamp src ~now f =
  let len = Packet.Frame.len f in
  let seq = src.next in
  src.next <- seq + 1;
  Packet.Frame.set_u32_i f (len - 8) seq;
  Packet.Frame.set_u32_i f (len - 4) ((magic lsl 16) lor src.port);
  let slot = seq land ring_mask in
  src.seqs.{slot} <- seq;
  src.sent.{slot} <- now

(* The identifier shared by one packet's spans: source port and seq. *)
let packet_id f =
  let len = Packet.Frame.len f in
  if len < 64 then -1
  else
    ((Packet.Frame.get_u32_i f (len - 4) land 0xFFFF) lsl 32)
    lor Packet.Frame.get_u32_i f (len - 8)

(* {1 Traced accumulators and spans} *)

type acc = {
  mutable calls : int;
  mutable ns : int;  (** host ns over the timed (non-suspended) calls *)
  mutable words : int;  (** minor words over the timed calls *)
  mutable suspended : int;
      (** calls during which simulated time advanced: the span includes
          other fibers' work, so it is counted and left out of [ns] *)
}

let acc () = { calls = 0; ns = 0; words = 0; suspended = 0 }

let copy a = { calls = a.calls; ns = a.ns; words = a.words; suspended = a.suspended }

let reset a =
  a.calls <- 0;
  a.ns <- 0;
  a.words <- 0;
  a.suspended <- 0

(* Span layer ids, in the order of [layer_names]. *)
let l_gen = 0
let l_inject = 1
let l_process = 2
let l_rip = 3
let l_mf_update = 4
let layer_names = [| "workload.gen"; "mac_port.inject"; "process"; "rip.apply"; "mf_classifier.update" |]

(* One lane per delivering router: a cluster member's fibers only ever run
   on one domain at a time, so lanes are never written concurrently. *)
type lane = {
  lat : ints;  (** latency samples, simulated ps *)
  mutable n_lat : int;
  mutable lat_overflow : int;
  mutable delivered : int;  (** stamped frames delivered exactly once *)
  mutable bad_stamp : int;  (** unknown, corrupted or duplicated stamps *)
  mutable bad_frame : int;  (** malformed header or TTL not decremented *)
  mutable bad_route : int;  (** delivered on a port the FIB does not name *)
  gen : acc;
  inject : acc;
  process : acc;
  spans : ints;  (** [layer; packet id; start ns; end ns] quadruples *)
  mutable n_spans : int;
}

let span_cap = 65_536

let lane ~traced ~lat_cap =
  {
    lat = ints lat_cap;
    n_lat = 0;
    lat_overflow = 0;
    delivered = 0;
    bad_stamp = 0;
    bad_frame = 0;
    bad_route = 0;
    gen = acc ();
    inject = acc ();
    process = acc ();
    spans = ints (if traced then 4 * span_cap else 4);
    n_spans = 0;
  }

let span lane layer id t0 t1 =
  let n = lane.n_spans in
  if n < span_cap && 4 * n < Array1.dim lane.spans then begin
    let b = 4 * n in
    lane.spans.{b} <- layer;
    lane.spans.{b + 1} <- id;
    lane.spans.{b + 2} <- t0;
    lane.spans.{b + 3} <- t1;
    lane.n_spans <- n + 1
  end

(* Replay keys, traced run only: the destinations and 5-tuples of the
   first [sample_cap] frames lane 0 offers in the windows, in order, so
   the FIB and the classifier can be timed alone on the run's own key
   sequence (the flow cache's hit rate depends on the order) and on lane
   0's tables afterwards.  Lane 0 only, so no two domains write here. *)
let sample_cap = 65_536

type t = {
  traced : bool;
  sources : source array;
  lanes : lane array;
  mutable window_start : int;
      (** simulated ps; latency is sampled for frames offered from here *)
  mutable stopped : bool;  (** sources go quiet (the drain phase) *)
  dsts : ints;
  mutable n_dsts : int;
  fives : Packet.Flow.five option array;
  mutable n_fives : int;
  rip_apply : acc;
  mf_update : acc;
  control_spans : lane;  (** spans of the control-plane fibers *)
}

let create ~traced ~n_sources ~n_lanes ~lat_cap =
  {
    traced;
    sources = Array.init n_sources source;
    lanes = Array.init n_lanes (fun _ -> lane ~traced ~lat_cap);
    window_start = max_int;
    stopped = false;
    dsts = ints (if traced then sample_cap else 1);
    n_dsts = 0;
    fives = Array.make (if traced then sample_cap else 1) None;
    n_fives = 0;
    rip_apply = acc ();
    mf_update = acc ();
    control_spans = lane ~traced ~lat_cap:1;
  }

(* {1 Wrappers around the layers' public calls} *)

let sample t f =
  if Sim.Engine.now_i () >= t.window_start then begin
    if t.n_dsts < sample_cap then begin
      t.dsts.{t.n_dsts} <- Packet.Ipv4.get_dst_i f;
      t.n_dsts <- t.n_dsts + 1
    end;
    if t.n_fives < sample_cap then
      match Packet.Flow.five_of_frame f with
      | Some k ->
          t.fives.(t.n_fives) <- Some k;
          t.n_fives <- t.n_fives + 1
      | None -> ()
  end

(* The frame generator, stamped; timed when traced. *)
let wrap_gen t lane src gen =
  if not t.traced then fun i ->
    let f = gen i in
    stamp src ~now:(Sim.Engine.now_i ()) f;
    f
  else fun i ->
    let a = lane.gen in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let f = gen i in
    let t1 = now_ns () in
    a.calls <- a.calls + 1;
    a.ns <- a.ns + (t1 - t0);
    a.words <- a.words + (minor_words () - w0);
    span lane l_gen ((src.port lsl 32) lor src.next) t0 t1;
    stamp src ~now:(Sim.Engine.now_i ()) f;
    if lane == t.lanes.(0) then sample t f;
    f

(* The port's receive side ([Router.inject] or [Cluster.inject]): a
   refused frame never reaches the router, so it goes back to the pool. *)
let wrap_offer t lane src ~pool inject f =
  src.offered <- src.offered + 1;
  let ok =
    if not t.traced then inject f
    else begin
      let a = lane.inject in
      let w0 = minor_words () in
      let t0 = now_ns () in
      let ok = inject f in
      let t1 = now_ns () in
      a.calls <- a.calls + 1;
      a.ns <- a.ns + (t1 - t0);
      a.words <- a.words + (minor_words () - w0);
      span lane l_inject (packet_id f) t0 t1;
      ok
    end
  in
  if not ok then begin
    src.refused <- src.refused + 1;
    Packet.Frame_pool.give pool f
  end;
  ok

(* [Router.default_process] behind a timer (traced run only; the untraced
   run starts the router without [~process]). *)
let wrap_process lane r =
  let process = Router.default_process r in
  fun ctx f ~in_port ->
    let a = lane.process in
    let s0 = Sim.Engine.now_i () in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let v = process ctx f ~in_port in
    let t1 = now_ns () in
    a.calls <- a.calls + 1;
    if Sim.Engine.now_i () <> s0 then a.suspended <- a.suspended + 1
    else begin
      a.ns <- a.ns + (t1 - t0);
      a.words <- a.words + (minor_words () - w0);
      span lane l_process (packet_id f) t0 t1
    end;
    v

(* A control-plane write ([Rip.apply], classifier [add]/[remove]). *)
let timed_write t a layer f =
  if not t.traced then f ()
  else begin
    let t0 = now_ns () in
    f ();
    let t1 = now_ns () in
    a.calls <- a.calls + 1;
    a.ns <- a.ns + (t1 - t0);
    span t.control_spans layer a.calls t0 t1
  end

(* {1 Delivery} *)

(* The delivery callback: [expect ~seq ~port f] says whether [f] belongs
   on global port [port]. *)
let deliver t lane ~expect ~port f =
  let len = Packet.Frame.len f in
  let tag = if len >= 64 then Packet.Frame.get_u32_i f (len - 4) else 0 in
  let src_port = tag land 0xFFFF in
  if tag lsr 16 <> magic || src_port >= Array.length t.sources then
    lane.bad_stamp <- lane.bad_stamp + 1
  else begin
    let src = t.sources.(src_port) in
    let seq = Packet.Frame.get_u32_i f (len - 8) in
    let slot = seq land ring_mask in
    if src.seqs.{slot} <> seq then lane.bad_stamp <- lane.bad_stamp + 1
    else begin
      src.seqs.{slot} <- -1;
      lane.delivered <- lane.delivered + 1;
      let sent = src.sent.{slot} in
      if sent >= t.window_start then begin
        if lane.n_lat < Array1.dim lane.lat then begin
          lane.lat.{lane.n_lat} <- Sim.Engine.now_i () - sent;
          lane.n_lat <- lane.n_lat + 1
        end
        else lane.lat_overflow <- lane.lat_overflow + 1
      end;
      if (not (Router.frame_escapable f)) || Packet.Ipv4.get_ttl f >= 64 then
        lane.bad_frame <- lane.bad_frame + 1
      else if not (expect ~seq ~port f) then
        lane.bad_route <- lane.bad_route + 1
    end
  end

(* {1 Summaries} *)

let sum_lanes t f = Array.fold_left (fun n l -> n + f l) 0 t.lanes
let offered t = Array.fold_left (fun n s -> n + s.offered) 0 t.sources
let refused t = Array.fold_left (fun n s -> n + s.refused) 0 t.sources

(* Each lane's sample count: a window's samples lie between two marks. *)
let marks t = Array.map (fun l -> l.n_lat) t.lanes

(* The samples recorded between two marks, sorted. *)
let samples t ~from ~upto =
  let n = ref 0 in
  Array.iteri (fun i _ -> n := !n + upto.(i) - from.(i)) t.lanes;
  let a = Array.make !n 0 in
  let k = ref 0 in
  Array.iteri
    (fun i l ->
      for j = from.(i) to upto.(i) - 1 do
        a.(!k) <- l.lat.{j};
        incr k
      done)
    t.lanes;
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let write_spans t path =
  let oc = open_out path in
  output_string oc "layer packet_id start_ns end_ns\n";
  let dump l =
    for i = 0 to l.n_spans - 1 do
      let b = 4 * i in
      Printf.fprintf oc "%s %d %d %d\n"
        layer_names.(l.spans.{b})
        l.spans.{b + 1} l.spans.{b + 2} l.spans.{b + 3}
    done
  in
  Array.iter dump t.lanes;
  dump t.control_spans;
  close_out oc
