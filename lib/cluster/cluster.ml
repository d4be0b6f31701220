module Fabric_queue = Fabric_queue

type member_health = {
  mutable up : bool;
  mutable crash_epochs : int;
  mutable up_since_us : float;
  mutable quiet_since_us : float;
  mutable uplink_rx_at_crash : int;
  mutable attempts_at_quiet : int;
  mutable delivered_at_quiet : int;
  mutable refused_at_quiet : int;
  mutable awaiting_recovery : bool;
  mutable recovery_latency_us : float; (* negative until first measured *)
}

type fabric_counts = {
  offered : int;
  delivered : int;
  dropped_link : int;
  dropped_down : int;
  dropped_unknown : int;
  dropped_queue : int;
  rx_refused : int;
  corrupted : int;
  stalled : int;
  in_flight : int;
  queued : int;
  bp_refused : int;
}

(* One fabric hop's link-damage stage: its deterministic stream and what
   it did.  Each member owns two, so the draw order never depends on how
   the engines interleave: [egress] draws on frames the member sends,
   [ingress] on frames arriving for it. *)
type hop = {
  rng : Sim.Rng.t;
  mutable dropped_link : int;
  mutable corrupted : int;
  mutable stalled : int;
}

(* A frame crossing the fabric, parked in the destination member's
   mailbox until that member's next epoch begins. *)
type msg = { arrival_ps : int; dst_port : int; frame : Packet.Frame.t }

(* Everything the cluster keeps about one member.  Member [m]'s domain is
   the only writer of its record while an epoch runs: egress counters
   sit in the sender's record, ingress counters in the receiver's.  The
   one exception is the mailbox: [inbox.(p).(s)] is the list sender [s]
   conses onto during epochs of parity [p] (only [s]'s domain writes it
   then); the owner empties the other parity's lists at its next epoch
   start, after the barrier. *)
type member = {
  egress : hop;
  ingress : hop;
  (* Control-plane churn: the member's stream (split after the queue
     streams, so enabling churn never shifts an existing draw) and the
     routing-table writes the churn driver performed — its "damage
     injected" measure. *)
  churn_rng : Sim.Rng.t;
  mutable churn_writes : int;
  (* Sending side. *)
  mutable offered : int; (* frames out of the uplinks into the switch *)
  mutable launched : int; (* ... that cleared the uplink queue onto the wire *)
  mutable dropped_unknown : int;
  mutable bp_refused : int; (* external injects refused by backpressure *)
  (* Receiving side: with [ingress.dropped_link], every terminal outcome
     of a launched frame, and the attempts on the uplink. *)
  mutable dropped_down : int;
  mutable attempts : int;
  mutable delivered : int;
  mutable refused : int;
  mutable q_dropped : int; (* by the switch egress queue towards it *)
  inbox : msg list array array;
  mutable parity : int; (* parity of the epoch the member is in *)
  health : member_health;
  scope : Telemetry.Scope.t;
  pool : Packet.Frame_pool.t option; (* [Some] under [~frame_pool] *)
  mutable invalid_escapes : int;
  mutable pending_violations : string list;
}

type state = {
  faults : Fault.Cluster_scenario.t;
  mutable clock_ps : int; (* cluster barrier clock *)
  telemetry : Telemetry.Registry.t;
  per_member : member array;
}

type t = {
  engines : Sim.Engine.t array;
  members : Router.t array;
  domains : int;
  mutable epoch : int; (* epochs completed since create *)
  invariants : Fault.Invariant.t;
  (* Finite fabric queues: [eg_queues.(m)] sits between member
     [m]'s uplinks and the switch (owned by [m]'s engine); [in_queues.(m)]
     is the switch egress port towards [m] (owned by [m]'s engine, where
     arrivals already run).  Mutable only because their deliver closures
     need [t]; assigned once inside [create]. *)
  mutable eg_queues : (int * Packet.Frame.t) Fabric_queue.t array;
  mutable in_queues : (int * Packet.Frame.t) Fabric_queue.t array;
  st : state;
}

(* The conservative bound: the fabric's minimum latency is the switch
   latency (stalls only add), so it is also the epoch length — how far a
   member may run ahead of its peers. *)
let switch_latency_us = 2.

(* The same in integer picoseconds. *)
let latency_ps = Int64.to_int (Sim.Engine.of_seconds (switch_latency_us *. 1e-6))

let member t m = t.st.per_member.(m)

(* Locally-administered, distinct from the per-port scheme. *)
let uplink_mac m = 0x02000000C100 lor (m land 0xFF)

(* The member whose uplink owns [mac], or -1: an int, not an option, so
   a crossing allocates nothing to ask. *)
let member_of_uplink_mac mac =
  if mac land 0xFFFFFFFF00 = 0x02000000C100 land 0xFFFFFFFF00 then
    mac land 0xFF
  else -1

let time t = Int64.of_int t.st.clock_ps

(* The cluster clock, as the barrier audits read it. *)
let now_us t = Sim.Engine.seconds (time t) *. 1e6

(* The clock of member [m]'s engine: what code running in one of [m]'s
   fibers reads (identical in sequential and parallel runs — the member
   executes the same events at the same times). *)
let member_now_us t m =
  Sim.Engine.seconds (Sim.Engine.time t.engines.(m)) *. 1e6

(* A scope event stamped with member [m]'s engine clock. *)
let member_event t m what =
  Telemetry.Scope.event_at (member t m).scope
    ~at:(Sim.Engine.time t.engines.(m))
    what

(* Long enough for anything launched before the damage ended to settle:
   both fabric hops plus slack. *)
let grace_us = (4. *. switch_latency_us) +. 100.

let uplink_rx t m =
  let r = t.members.(m) in
  let n = r.Router.config.Router.n_ports in
  let ports = r.Router.chip.Ixp.Chip.ports in
  Ixp.Mac_port.rx_frames ports.(n) + Ixp.Mac_port.rx_frames ports.(n + 1)

let set_member_links t m up =
  Array.iter
    (fun p -> Ixp.Mac_port.set_link_up p up)
    t.members.(m).Router.chip.Ixp.Chip.ports

(* A crash is fail-stop at the PHYs: every port (external and uplink)
   refuses arrivals and transmits into the void, so the member emits
   nothing and accepts nothing — frames still queued inside it at the
   crash are lost at the dead MACs, counted per port as tx_link_down. *)
let do_crash t m =
  let h = (member t m).health in
  h.up <- false;
  h.crash_epochs <- h.crash_epochs + 1;
  h.uplink_rx_at_crash <- uplink_rx t m;
  set_member_links t m false;
  (* The crash cuts the uplink under the member's egress queue: frames
     still queued (and the one in service) are stranded, counted as
     flushed so fabric conservation still balances.  The switch egress
     queue towards the member keeps draining — its frames die at the
     dead PHY as dropped_down, the accounted path. *)
  ignore (Fabric_queue.flush t.eg_queues.(m) : int);
  member_event t m "crash"

let snapshot_quiet t m =
  let mb = member t m in
  let h = mb.health in
  h.quiet_since_us <- member_now_us t m;
  h.attempts_at_quiet <- mb.attempts;
  h.delivered_at_quiet <- mb.delivered;
  h.refused_at_quiet <- mb.refused

let do_restart t m =
  let mb = member t m in
  let h = mb.health in
  let rx = uplink_rx t m in
  (* The uplink MACs must not have accepted anything while dead; audit at
     the rejoin so a one-shot crash window cannot dodge the barrier. *)
  if rx <> h.uplink_rx_at_crash then
    mb.pending_violations <-
      Printf.sprintf "member %d's uplinks accepted %d frame(s) while crashed" m
        (rx - h.uplink_rx_at_crash)
      :: mb.pending_violations;
  set_member_links t m true;
  h.up <- true;
  h.up_since_us <- member_now_us t m;
  h.awaiting_recovery <- true;
  snapshot_quiet t m;
  member_event t m "restart"

(* The deterministic fault drivers: per member, one fiber walking that
   member's crash/restart/window-end boundaries in time order on the
   member's own engine (a driver only ever touches its own member's
   state, so it is domain-confined by construction).  Spawned only when
   the member has at least one boundary, so a zero scenario leaves every
   event schedule untouched. *)
let spawn_drivers t =
  let open Fault.Cluster_scenario in
  Array.iteri
    (fun m engine ->
      let acts =
        List.concat_map
          (fun e ->
            if e.member <> m then []
            else
              match e.kind with
              | Crash ->
                  (e.start_us, `Crash)
                  ::
                  (if e.dur_us > 0. then
                     [ (e.start_us +. e.dur_us, `Restart) ]
                   else [])
              | Link_drop | Link_corrupt | Link_stall | Route_churn ->
                  if e.dur_us > 0. then [ (e.start_us +. e.dur_us, `Quiet) ]
                  else [])
          t.st.faults.events
      in
      let acts = List.stable_sort (fun (a, _) (b, _) -> compare a b) acts in
      if acts <> [] then
        Sim.Engine.spawn engine "cluster-fault-driver" (fun () ->
            List.iter
              (fun (at_us, act) ->
                let target =
                  Int64.to_int (Sim.Engine.of_seconds (at_us *. 1e-6))
                in
                let d = target - Sim.Engine.clock_i engine in
                if d > 0 then Sim.Engine.wait_in engine d;
                match act with
                | `Crash -> do_crash t m
                | `Restart -> do_restart t m
                | `Quiet -> snapshot_quiet t m)
              acts))
    t.engines

(* Control-plane route churn: one fiber per [route_churn] window on the
   member's own engine, announcing and withdrawing /24s against the
   member's live table at the scheduled rate — real FIB writes and
   route-cache invalidations while the data plane forwards.  The churned
   prefixes live in 172.16/12, disjoint from the cluster's 10/8 member
   subnets, so forwarding of fabric traffic is untouched while the
   update path takes the hits.  A fiber only touches its own member's
   table, RNG stream and counter, so it is domain-confined like the
   fault drivers. *)
let spawn_churn_fibers t =
  let open Fault.Cluster_scenario in
  Array.iteri
    (fun m engine ->
      List.iter
        (fun e ->
          Sim.Engine.spawn engine "cluster-route-churn" (fun () ->
              let ps_of_us us =
                Int64.to_int (Sim.Engine.of_seconds (us *. 1e-6))
              in
              let d = ps_of_us e.start_us - Sim.Engine.clock_i engine in
              if d > 0 then Sim.Engine.wait_in engine d;
              let period_ps = int_of_float (Float.max 1. (1e12 /. e.param)) in
              let end_ps =
                if e.dur_us <= 0. then max_int
                else ps_of_us (e.start_us +. e.dur_us)
              in
              let mb = member t m in
              let rng = mb.churn_rng in
              let routes = t.members.(m).Router.routes in
              let ppm = t.members.(m).Router.config.Router.n_ports in
              let installed = ref [] in
              while Sim.Engine.clock_i engine < end_ps do
                (* A crashed member's control plane is down with it: no
                   writes and no draws until it rejoins, so the stream
                   stays aligned with the deterministic health
                   schedule. *)
                if mb.health.up then begin
                  (match !installed with
                  | p :: rest when Sim.Rng.bool rng ->
                      Iproute.Table.remove routes p;
                      installed := rest
                  | _ ->
                      let s = 16 + Sim.Rng.int rng 16 in
                      let x = Sim.Rng.int rng 256 in
                      let p =
                        Iproute.Prefix.of_string
                          (Printf.sprintf "172.%d.%d.0/24" s x)
                      in
                      Iproute.Table.add routes p
                        {
                          Iproute.Table.out_port = Sim.Rng.int rng ppm;
                          gateway_mac = Packet.Ethernet.mac_of_port 250;
                        };
                      installed := p :: !installed);
                  mb.churn_writes <- mb.churn_writes + 1
                end;
                Sim.Engine.wait_in engine period_ps
              done))
        (churn_events t.st.faults ~member:m))
    t.engines

let corrupt_copy rng f =
  let g = Packet.Frame.copy f in
  let len = Packet.Frame.len g in
  if len > 0 then begin
    let n = 1 + Sim.Rng.int rng 4 in
    for _ = 1 to n do
      let i = Sim.Rng.int rng len in
      Packet.Frame.set_u8 g i (Sim.Rng.int rng 256)
    done
  end;
  g

(* Zero-rate damage draws no randomness, mirroring [Fault.Injector]:
   enabling one member's fault never shifts another's stream, and the
   zero scenario never touches the RNG at all. *)
let fires rng rate = rate > 0. && Sim.Rng.float rng 1.0 < rate

(* What {!damage} returns for a frame the link dropped: compared by
   address, so the zero-damage path allocates no option. *)
let lost = Packet.Frame.alloc 0

(* The link-damage stage both hops share: a drop draw, then a corrupt
   draw, each only when its rate is positive.  Returns the frame to
   carry on with (a damaged copy when corrupted), or {!lost}. *)
let damage t hop ~member ~at_us f =
  let faults = t.st.faults in
  if fires hop.rng (Fault.Cluster_scenario.drop_rate faults ~member ~at_us)
  then begin
    hop.dropped_link <- hop.dropped_link + 1;
    lost
  end
  else if
    fires hop.rng (Fault.Cluster_scenario.corrupt_rate faults ~member ~at_us)
  then begin
    hop.corrupted <- hop.corrupted + 1;
    corrupt_copy hop.rng f
  end
  else f

(* The extra latency an injected stall adds to a frame on this hop, in
   picoseconds (0 when none is in force); draws nothing. *)
let stall_ps t hop ~member ~at_us =
  let stall = Fault.Cluster_scenario.stall_us t.st.faults ~member ~at_us in
  if stall > 0. then begin
    hop.stalled <- hop.stalled + 1;
    Int64.to_int (Sim.Engine.of_seconds (stall *. 1e-6))
  end
  else 0

(* The service class a frame rides in on a per-class fabric queue: the
   classic IP-precedence bits (clamped to the configured class count by
   the queue); anything unparseable travels best-effort in class 0. *)
let frame_class f =
  if
    Packet.Frame.len f >= Packet.Ipv4.offset + Packet.Ipv4.min_header_len
    && Packet.Ethernet.get_ethertype f = Packet.Ethernet.ethertype_ipv4
  then Packet.Ipv4.precedence f
  else 0

(* The switch egress port puts a frame on the destination member's
   uplink wire: the back half of the old delivery path, now also the
   ingress queue's service completion.  Runs on [dst]'s engine.  Each
   terminal outcome bumps exactly one of the receiver's outcome counters, so
   fabric conservation holds at any barrier, including one landing
   mid-stall or mid-queue. *)
let uplink_tx t ~dst (port, f) =
  let d = member t dst in
  let h = d.health in
  if not h.up then d.dropped_down <- d.dropped_down + 1
  else begin
    d.attempts <- d.attempts + 1;
    if Router.inject t.members.(dst) ~port f then begin
      if h.awaiting_recovery then begin
        h.recovery_latency_us <- member_now_us t dst -. h.up_since_us;
        h.awaiting_recovery <- false
      end;
      d.delivered <- d.delivered + 1
    end
    else if
      Ixp.Mac_port.link_up t.members.(dst).Router.chip.Ixp.Chip.ports.(port)
    then d.refused <- d.refused + 1
    else d.dropped_down <- d.dropped_down + 1
  end

(* The egress port's finite queue admits the frame; the default bypass
   queue hands it to {!uplink_tx} synchronously, reproducing the
   pre-queueing fabric byte for byte. *)
let enqueue_ingress t ~dst ~port f =
  if
    not
      (Fabric_queue.offer t.in_queues.(dst) ~cls:(frame_class f)
         ~len:(Packet.Frame.len f) (port, f))
  then
    let d = member t dst in
    d.q_dropped <- d.q_dropped + 1

(* A frame arrives at the switch egress port towards [dst] after the
   switch latency.  Runs as an engine callback on the destination's
   engine, so every counter it touches is the receiver's.  After the
   link-damage stage, and a stall if one is in force (the rest then runs
   as a second callback that much later), it enters the egress port's
   queue. *)
let deliver_fabric t ~dst ~port f =
  let d = member t dst in
  if not d.health.up then d.dropped_down <- d.dropped_down + 1
  else begin
    let at_us = member_now_us t dst in
    let f = damage t d.ingress ~member:dst ~at_us f in
    if f != lost then begin
      let stall = stall_ps t d.ingress ~member:dst ~at_us in
      if stall > 0 then begin
        let e = t.engines.(dst) in
        Sim.Engine.call_at e ~at:(Sim.Engine.clock_i e + stall) (fun () ->
            enqueue_ingress t ~dst ~port f)
      end
      else enqueue_ingress t ~dst ~port f
    end
  end

(* Schedule, in send order, what one sender parked for member [m]: its
   list is consed newest-first, so walk it back to front (a mailbox
   holds one epoch's frames — the recursion stays shallow). *)
let rec schedule_from t m = function
  | [] -> ()
  | msg :: older ->
      schedule_from t m older;
      Sim.Engine.call_at t.engines.(m) ~at:msg.arrival_ps (fun () ->
          deliver_fabric t ~dst:m ~port:msg.dst_port msg.frame)

(* Drain everything sent to member [m] during the previous epoch and
   schedule each arrival on [m]'s engine at its absolute timestamp,
   sender by sender and each sender's frames in send order.  The engine
   runs same-time events in the order they were scheduled, so
   same-instant arrivals run in sender order whichever domain sent
   first: the receiver assigns the same event sequence numbers in
   sequential and parallel runs — the heart of the bit-for-bit
   identity. *)
let drain_inbox t m ~parity =
  let from = (member t m).inbox.(1 - parity) in
  for src = 0 to Array.length from - 1 do
    match from.(src) with
    | [] -> ()
    | msgs ->
        from.(src) <- [];
        schedule_from t m msgs
  done

(* The learning switch, egress side: a frame that cleared the member's
   uplink queue goes onto the wire into the switch.  Runs on the sending
   member's engine: in the uplink queue's service-completion callback,
   or in the sender's own fiber under bypass.  Damage draws use the
   sender's stream.  The fabric owns the frame it carries: the uplink MAC
   handed it over as a fresh unpooled [prefix_copy] (see {!send_fabric}),
   so the sender's recycling buffer pool can never reuse bytes the
   receiving domain still holds, and the receiver's recycler ignores it.
   The corrupt path damages a copy. *)
let launch_fabric t ~src (port, f) =
  let s = member t src in
  let at_us = member_now_us t src in
  let f = damage t s.egress ~member:src ~at_us f in
  if f != lost then begin
    let d = member_of_uplink_mac (Packet.Ethernet.get_dst f) in
    if d < 0 || d >= Array.length t.members then
      s.dropped_unknown <- s.dropped_unknown + 1
    else begin
      s.launched <- s.launched + 1;
      (* Integer arithmetic keeps the conservative bound exact:
         arrival - send >= latency_ps, the epoch length. *)
      let arrival =
        Sim.Engine.clock_i t.engines.(src)
        + latency_ps
        + stall_ps t s.egress ~member:src ~at_us
      in
      let slots = (member t d).inbox.(s.parity) in
      slots.(src) <-
        { arrival_ps = arrival; dst_port = port; frame = f } :: slots.(src)
    end
  end

(* A frame leaving a member's uplink MAC first enters that uplink's
   finite queue; {!launch_fabric} is its service completion.  The frame
   the MAC hands us is already a fresh unpooled copy
   ({!Ixp.Mac_port.transmit_frame} sinks a [prefix_copy]), so holding it
   across the queueing delay is safe.  The default bypass queue calls
   {!launch_fabric} synchronously — the pre-queueing fabric, byte for
   byte. *)
let send_fabric t ~src ~port f =
  let s = member t src in
  s.offered <- s.offered + 1;
  ignore
    (Fabric_queue.offer t.eg_queues.(src) ~cls:(frame_class f)
       ~len:(Packet.Frame.len f) (port, f)
      : bool)

let wire_switch t ~gated =
  let uplink_local = t.members.(0).Router.config.Router.n_ports in
  Array.iteri
    (fun m r ->
      List.iter
        (fun up ->
          Router.connect r ~port:up (fun f -> send_fabric t ~src:m ~port:up f);
          (* Backpressure into the member's egress path: while the uplink
             queue is past its high watermark the MAC reports the wire
             busy, so the output loop holds frames in the router's own
             queues (it polls with backoff — no livelock). *)
          if gated then
            Ixp.Mac_port.set_tx_gate r.Router.chip.Ixp.Chip.ports.(up)
              (fun () -> not (Fabric_queue.paused t.eg_queues.(m))))
        [ uplink_local; uplink_local + 1 ])
    t.members

(* --- conservative epoch scheduler ------------------------------------- *)

(* Sense-reversing barrier: brief spin (cheap when domains outnumber
   cores zero times over), then block on a condition variable (cheap
   when they don't — this container may have a single core, where
   spinning a full timeslice per epoch would be pathological). *)
module Barrier = struct
  type b = {
    n : int;
    count : int Atomic.t;
    gen : int Atomic.t;
    lock : Mutex.t;
    cond : Condition.t;
  }

  let create n =
    {
      n;
      count = Atomic.make 0;
      gen = Atomic.make 0;
      lock = Mutex.create ();
      cond = Condition.create ();
    }

  let wait b =
    let g = Atomic.get b.gen in
    if Atomic.fetch_and_add b.count 1 = b.n - 1 then begin
      (* Last arrival: reset for the next generation, then release.  The
         count reset is safe before the generation bump — nobody can
         re-enter this barrier until [gen] moves. *)
      Atomic.set b.count 0;
      Mutex.lock b.lock;
      Atomic.incr b.gen;
      Condition.broadcast b.cond;
      Mutex.unlock b.lock
    end
    else begin
      let spins = ref 0 in
      while Atomic.get b.gen = g && !spins < 4096 do
        incr spins;
        Domain.cpu_relax ()
      done;
      if Atomic.get b.gen = g then begin
        Mutex.lock b.lock;
        while Atomic.get b.gen = g do
          Condition.wait b.cond b.lock
        done;
        Mutex.unlock b.lock
      end
    end
end

(* A floor on a domain's minor arena (never lowered — a larger ambient
   setting stands), applied by [create] and by every worker domain
   [run_epochs] spawns.  Every fabric crossing still allocates its frame
   (the uplink MAC's copy) on top of the pooled data path, so a few
   megawords of arena keep whole epochs collection-free.  GC pacing is
   invisible to the simulation (the determinism digests exclude host-GC
   gauges), so this is pure throughput. *)
let minor_heap_words = 4 * 1024 * 1024

let ensure_minor_heap () =
  let cur = Gc.get () in
  if cur.Gc.minor_heap_size < minor_heap_words then
    Gc.set { cur with Gc.minor_heap_size = minor_heap_words }

(* Advance every member to [target_ps] in epochs of the fabric's minimum
   latency (the lookahead).

   Conservative-lookahead argument: a frame sent at time s pays at least
   [latency_ps], the epoch length, so its arrival satisfies
   arrival = s + latency + stall > e_{k-1} + latency = e_k for any
   send inside epoch k = (e_{k-1}, e_k].  Hence nothing sent during an
   epoch can arrive within that same epoch, and draining each mailbox at
   the *next* epoch's start schedules every arrival before its receiver
   can pass its timestamp.  Members never interact except through the
   mailboxes, so each epoch's events are independent across members and
   may run on concurrent domains.

   Sequential ([domains = 1]) runs the identical epoch machinery on one
   domain, so parallel and sequential runs execute the same per-member
   event sequences by construction — same metrics, same audits. *)
let run_epochs t ~target_ps =
  let start = t.st.clock_ps in
  if target_ps > start then begin
    let members = Array.length t.members in
    let nd = t.domains in
    let l = latency_ps in
    let n_epochs = (target_ps - start + l - 1) / l in
    let barrier = if nd > 1 then Some (Barrier.create nd) else None in
    let stop = Atomic.make false in
    let errors = Array.make nd None in
    let epoch0 = t.epoch in
    let body did k =
      let e = min target_ps (start + ((k + 1) * l)) in
      let parity = (epoch0 + k) land 1 in
      let m = ref did in
      while !m < members do
        drain_inbox t !m ~parity;
        (member t !m).parity <- parity;
        Sim.Engine.run t.engines.(!m) ~until:(Int64.of_int e);
        m := !m + nd
      done
    in
    (* A worker that fails still visits every barrier (it just stops
       simulating), so its peers cannot hang; the first error re-raises
       after the join, with its original backtrace. *)
    let worker did () =
      (* Freshly spawned domains start on the runtime's default minor
         arena. *)
      if did > 0 then ensure_minor_heap ();
      for k = 0 to n_epochs - 1 do
        (if not (Atomic.get stop) then
           try body did k
           with ex ->
             errors.(did) <- Some (ex, Printexc.get_raw_backtrace ());
             Atomic.set stop true);
        match barrier with Some b -> Barrier.wait b | None -> ()
      done
    in
    let spawned = List.init (nd - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    List.iter Domain.join spawned;
    t.epoch <- t.epoch + n_epochs;
    t.st.clock_ps <- target_ps;
    Array.iter
      (function
        | Some (ex, bt) -> Printexc.raise_with_backtrace ex bt | None -> ())
      errors
  end

(* --- invariants and telemetry ------------------------------------------ *)

(* [f] summed over every member's record, or over a queue array. *)
let sum t f = Array.fold_left (fun acc mb -> acc + f mb) 0 t.st.per_member
let qsum f qs = Array.fold_left (fun acc q -> acc + f q) 0 qs

(* The one place the fabric totals are summed; the conservation
   invariant and the [fabric] gauges read them from here.  Queue drops
   on the egress side (tail, RED, crash-flushed) happen before launch;
   frames sitting in either queue are "queued". *)
let fabric_counts t : fabric_counts =
  let in_occ = qsum Fabric_queue.occupancy t.in_queues in
  let delivered = sum t (fun mb -> mb.delivered) in
  let in_dropped_link = sum t (fun mb -> mb.ingress.dropped_link) in
  let dropped_down = sum t (fun mb -> mb.dropped_down) in
  let rx_refused = sum t (fun mb -> mb.refused) in
  let in_q_dropped = sum t (fun mb -> mb.q_dropped) in
  {
    offered = sum t (fun mb -> mb.offered);
    delivered;
    dropped_link = sum t (fun mb -> mb.egress.dropped_link) + in_dropped_link;
    dropped_down;
    dropped_unknown = sum t (fun mb -> mb.dropped_unknown);
    dropped_queue =
      qsum Fabric_queue.dropped t.eg_queues
      + qsum Fabric_queue.flushed t.eg_queues
      + in_q_dropped;
    rx_refused;
    corrupted = sum t (fun mb -> mb.egress.corrupted + mb.ingress.corrupted);
    stalled = sum t (fun mb -> mb.egress.stalled + mb.ingress.stalled);
    (* On the wire or paying an injected stall: launched but neither
       settled on the receiving side nor parked in a switch egress
       queue. *)
    in_flight =
      sum t (fun mb -> mb.launched)
      - (delivered + in_dropped_link + dropped_down + rx_refused
       + in_q_dropped)
      - in_occ;
    queued = qsum Fabric_queue.occupancy t.eg_queues + in_occ;
    bp_refused = sum t (fun mb -> mb.bp_refused);
  }

let register_invariants t =
  let reg = Fault.Invariant.register t.invariants in
  reg "fabric-conservation" (fun () ->
      let c = fabric_counts t in
      let settled =
        c.delivered + c.dropped_link + c.dropped_down + c.dropped_unknown
        + c.rx_refused + c.dropped_queue
      in
      if settled + c.in_flight + c.queued <> c.offered then
        Some
          (Printf.sprintf
             "fabric offered %d frames but %d settled + %d in flight + %d \
              queued"
             c.offered settled c.in_flight c.queued)
      else None);
  reg "no-escape-to-crashed" (fun () ->
      let msgs =
        Array.fold_right
          (fun mb acc -> List.rev_append mb.pending_violations acc)
          t.st.per_member []
      in
      if msgs <> [] then begin
        Array.iter (fun mb -> mb.pending_violations <- []) t.st.per_member;
        Some (String.concat "; " msgs)
      end
      else begin
        let bad = ref None in
        Array.iteri
          (fun m mb ->
            let h = mb.health in
            if (not h.up) && !bad = None then begin
              let rx = uplink_rx t m in
              if rx <> h.uplink_rx_at_crash then
                bad :=
                  Some
                    (Printf.sprintf
                       "member %d's uplinks accepted %d frame(s) while crashed"
                       m
                       (rx - h.uplink_rx_at_crash))
            end)
          t.st.per_member;
        !bad
      end);
  reg "membership-state" (fun () ->
      let at_us = now_us t in
      let bad = ref None in
      Array.iteri
        (fun m mb ->
          let h = mb.health in
          (* A barrier can land exactly on a crash/restart edge, where
             float rounding of the picosecond clock puts [at_us] an
             epsilon on either side of the scheduled instant: only flag a
             member whose state disagrees with the schedule on BOTH sides
             of the edge. *)
          let crashed_at at_us =
            Fault.Cluster_scenario.crashed t.st.faults ~member:m ~at_us
          in
          let should = not (crashed_at at_us) in
          let unambiguous =
            crashed_at (at_us -. 1e-3) = crashed_at (at_us +. 1e-3)
          in
          if !bad = None && unambiguous && h.up <> should then
            bad :=
              Some
                (Printf.sprintf
                   "member %d is %s but the schedule says %s at %.0f us" m
                   (if h.up then "up" else "down")
                   (if should then "up" else "down")
                   at_us))
        t.st.per_member;
      !bad);
  (* Convergence: once a member is back up and its damage windows are
     over (plus a settling grace), fabric frames addressed to it must be
     reaching its uplink again — delivered, or at worst refused by port
     memory, but not vanishing.  Catches a restart that forgets to
     re-raise the links, or stuck health state. *)
  reg "membership-convergence" (fun () ->
      let at_us = now_us t in
      let bad = ref None in
      Array.iteri
        (fun m mb ->
          let h = mb.health in
          if
            !bad = None && h.up
            && not
                 (Fault.Cluster_scenario.member_active t.st.faults ~member:m
                    ~at_us)
            && at_us -. Float.max h.up_since_us h.quiet_since_us >= grace_us
          then begin
            let attempts = mb.attempts - h.attempts_at_quiet in
            let progressed =
              mb.delivered - h.delivered_at_quiet
              + (mb.refused - h.refused_at_quiet)
            in
            if attempts >= 20 && progressed = 0 then
              bad :=
                Some
                  (Printf.sprintf
                     "member %d: %d fabric frames addressed since \
                      rejoin/quiet but none reached its uplink"
                     m attempts)
          end)
        t.st.per_member;
      !bad);
  reg "no-invalid-escape"
    (let seen = ref 0 in
     fun () ->
       let n = sum t (fun mb -> mb.invalid_escapes) in
       if n > !seen then begin
         let fresh = n - !seen in
         seen := n;
         Some
           (Printf.sprintf
              "%d malformed frame(s) escaped member external ports" fresh)
       end
       else None)

let register_telemetry t =
  let fab = Telemetry.Registry.scope t.st.telemetry "fabric" in
  let g name f = Telemetry.Scope.gauge_int fab name f in
  let count name f = g name (fun () -> f (fabric_counts t)) in
  count "frames" (fun c -> c.offered);
  count "delivered" (fun c -> c.delivered);
  count "dropped_link" (fun c -> c.dropped_link);
  count "dropped_down" (fun c -> c.dropped_down);
  count "dropped_unknown" (fun c -> c.dropped_unknown);
  count "rx_refused" (fun c -> c.rx_refused);
  count "corrupted" (fun c -> c.corrupted);
  count "stalled" (fun c -> c.stalled);
  count "in_flight" (fun c -> c.in_flight);
  count "queued" (fun c -> c.queued);
  g "queue_dropped_tail" (fun () ->
      qsum Fabric_queue.dropped_tail t.eg_queues
      + qsum Fabric_queue.dropped_tail t.in_queues);
  g "queue_dropped_red" (fun () ->
      qsum Fabric_queue.dropped_red t.eg_queues
      + qsum Fabric_queue.dropped_red t.in_queues);
  g "queue_flushed" (fun () -> qsum Fabric_queue.flushed t.eg_queues);
  g "queue_hwm" (fun () ->
      Array.fold_left
        (fun acc q -> max acc (Fabric_queue.hwm q))
        0
        (Array.append t.eg_queues t.in_queues));
  g "bp_pauses" (fun () ->
      qsum Fabric_queue.pauses t.eg_queues
      + qsum Fabric_queue.pauses t.in_queues);
  count "bp_refused" (fun c -> c.bp_refused);
  Telemetry.Scope.gauge fab "queue_delay_us_mean" (fun () ->
      let served =
        qsum Fabric_queue.serviced t.eg_queues
        + qsum Fabric_queue.serviced t.in_queues
      in
      if served = 0 then 0.
      else
        Sim.Engine.seconds
          (Int64.of_int
             (qsum Fabric_queue.delay_ps_total t.eg_queues
             + qsum Fabric_queue.delay_ps_total t.in_queues))
        *. 1e6 /. float_of_int served);
  Array.iteri
    (fun m mb ->
      let scope = mb.scope in
      let h = mb.health in
      let r = t.members.(m) in
      let n = r.Router.config.Router.n_ports in
      let ports = r.Router.chip.Ixp.Chip.ports in
      Telemetry.Scope.gauge_int scope "up" (fun () -> if h.up then 1 else 0);
      Telemetry.Scope.gauge_int scope "crash_epochs" (fun () -> h.crash_epochs);
      Telemetry.Scope.gauge scope "recovery_latency_us" (fun () ->
          h.recovery_latency_us);
      Telemetry.Scope.gauge_int scope "fabric_attempts" (fun () -> mb.attempts);
      Telemetry.Scope.gauge_int scope "fabric_delivered" (fun () ->
          mb.delivered);
      Telemetry.Scope.gauge_int scope "fabric_refused" (fun () -> mb.refused);
      Telemetry.Scope.gauge_int scope "uplink_rx_link_down" (fun () ->
          Ixp.Mac_port.rx_link_down ports.(n)
          + Ixp.Mac_port.rx_link_down ports.(n + 1));
      Telemetry.Scope.gauge_int scope "tx_link_down" (fun () ->
          Array.fold_left
            (fun acc p -> acc + Ixp.Mac_port.tx_link_down p)
            0 ports);
      Telemetry.Scope.gauge_int scope "uplink_queue_depth" (fun () ->
          Fabric_queue.occupancy t.eg_queues.(m));
      Telemetry.Scope.gauge_int scope "uplink_queue_hwm" (fun () ->
          Fabric_queue.hwm t.eg_queues.(m));
      Telemetry.Scope.gauge_int scope "egress_queue_depth" (fun () ->
          Fabric_queue.occupancy t.in_queues.(m));
      Telemetry.Scope.gauge_int scope "egress_queue_hwm" (fun () ->
          Fabric_queue.hwm t.in_queues.(m));
      Telemetry.Scope.gauge_int scope "uplink_tx_gated" (fun () ->
          Ixp.Mac_port.tx_gated ports.(n) + Ixp.Mac_port.tx_gated ports.(n + 1));
      Telemetry.Scope.gauge_int scope "bp_refused" (fun () -> mb.bp_refused);
      Telemetry.Scope.gauge_int scope "route_churn_writes" (fun () ->
          mb.churn_writes);
      Telemetry.Scope.gauge_int scope "route_count" (fun () ->
          Iproute.Table.size r.Router.routes))
    t.st.per_member

let create ?(members = 4) ?(ports_per_member = 8) ?(domains = 1) ?(config = Router.default_config)
    ?(faults = Fault.Cluster_scenario.zero) ?(frame_pool = false)
    ?(fabric_queue = Fabric_queue.bypass) () =
  if members < 2 then invalid_arg "Cluster.create: members < 2";
  (* Global port g routes 10.g.0.0/16: g must fit the second octet. *)
  if members * ports_per_member > 256 then
    invalid_arg "Cluster.create: more than 256 global ports";
  ensure_minor_heap ();
  let named = Fault.Cluster_scenario.max_member faults in
  if named >= members then
    invalid_arg
      (Printf.sprintf
         "Cluster.create: fault scenario names member %d but the cluster has \
          %d members"
         named members);
  if domains < 1 then invalid_arg "Cluster.create: domains < 1";
  let domains = min domains members in
  let engines = Array.init members (fun _ -> Sim.Engine.create ()) in
  (* Two 1 Gbps uplinks per member (the evaluation board's pair): cross
     traffic is spread across them by destination subnet so each stays
     within a single output context's reach. *)
  let config =
    {
      config with
      Router.n_ports = ports_per_member;
      uplink_ports = 2;
      uplink_mbps = 1000.;
    }
  in
  let rs =
    Array.init members (fun m -> Router.create ~config ~engine:engines.(m) ())
  in
  let pools =
    Array.map
      (fun r ->
        if not frame_pool then None
        else begin
          let pool =
            Packet.Frame_pool.create ~max_frames:4096 ~frame_bytes:512 ()
          in
          Router.set_frame_pool r pool;
          Some pool
        end)
      rs
  in
  let uplink_local = ports_per_member in
  (* Routes: every member knows every global subnet; remote ones point at
     the owner's uplink MAC across the fabric. *)
  Array.iteri
    (fun m r ->
      for g = 0 to (members * ports_per_member) - 1 do
        let owner = g / ports_per_member in
        let prefix = Iproute.Prefix.of_bits ((10 lsl 24) lor (g lsl 16)) 16 in
        if owner = m then
          Router.add_route r prefix ~port:(g mod ports_per_member)
        else
          Iproute.Table.add r.Router.routes prefix
            {
              Iproute.Table.out_port = uplink_local + (g mod 2);
              gateway_mac = uplink_mac owner;
            }
      done)
    rs;
  let telemetry = Telemetry.Registry.create () in
  let scopes =
    Array.init members (fun m ->
        Telemetry.Registry.scope telemetry "member"
          ~labels:[ ("id", string_of_int m) ])
  in
  (* Per-member deterministic damage streams, split off one master in
     fixed member order; creation draws nothing downstream, so the zero
     scenario still never consumes randomness. *)
  let master = Sim.Rng.create faults.Fault.Cluster_scenario.seed in
  let hop () =
    { rng = Sim.Rng.split master; dropped_link = 0; corrupted = 0; stalled = 0 }
  in
  let hops =
    Array.init members (fun _ ->
        let egress = hop () in
        (egress, hop ()))
  in
  (* Queue streams (RED's early-drop draws) split *after* the damage
     streams, in member order, so enabling queueing never shifts an
     existing stream — and the bypass queue never draws, so a cluster
     without queueing still consumes exactly the old randomness. *)
  let q_rngs =
    Array.init members (fun _ ->
        let eg = Sim.Rng.split master in
        (eg, Sim.Rng.split master))
  in
  (* Churn streams split after the queue streams for the same reason:
     adding route churn to a scenario never shifts damage or RED
     draws. *)
  let churn_rngs = Array.init members (fun _ -> Sim.Rng.split master) in
  let per_member =
    Array.init members (fun m ->
        let egress, ingress = hops.(m) in
        {
          egress;
          ingress;
          churn_rng = churn_rngs.(m);
          churn_writes = 0;
          offered = 0;
          launched = 0;
          dropped_unknown = 0;
          bp_refused = 0;
          dropped_down = 0;
          attempts = 0;
          delivered = 0;
          refused = 0;
          q_dropped = 0;
          inbox = Array.init 2 (fun _ -> Array.make members []);
          parity = 0;
          health =
            {
              up = true;
              crash_epochs = 0;
              up_since_us = 0.;
              quiet_since_us = 0.;
              uplink_rx_at_crash = 0;
              attempts_at_quiet = 0;
              delivered_at_quiet = 0;
              refused_at_quiet = 0;
              awaiting_recovery = false;
              recovery_latency_us = -1.;
            };
          scope = scopes.(m);
          pool = pools.(m);
          invalid_escapes = 0;
          pending_violations = [];
        })
  in
  let st = { faults; clock_ps = 0; telemetry; per_member } in
  let invariants =
    Fault.Invariant.create
      ~scope:(Telemetry.Registry.scope telemetry "invariant")
      ~clock:(fun () -> Int64.of_int st.clock_ps)
      ()
  in
  let t =
    {
      engines;
      members = rs;
      domains;
      epoch = 0;
      invariants;
      eg_queues = [||];
      in_queues = [||];
      st;
    }
  in
  (* The deliver closures need [t], so the queues are assigned right
     after it exists (and before anything can run).  Creation draws
     nothing from the queue streams. *)
  t.eg_queues <-
    Array.init members (fun m ->
        Fabric_queue.create ~engine:engines.(m) ~cfg:fabric_queue
          ~rng:(fst q_rngs.(m))
          ~deliver:(fun item -> launch_fabric t ~src:m item)
          ());
  t.in_queues <-
    Array.init members (fun m ->
        Fabric_queue.create ~engine:engines.(m) ~cfg:fabric_queue
          ~rng:(snd q_rngs.(m))
          ~deliver:(fun item -> uplink_tx t ~dst:m item)
          ());
  Telemetry.Registry.set_clock telemetry (fun () -> time t);
  register_telemetry t;
  register_invariants t;
  wire_switch t ~gated:(not (Fabric_queue.is_bypass fabric_queue));
  (* Members run fault-free routers, so their own sinks do not audit
     escapes; under a cluster fault scenario the fabric can corrupt
     frames, so audit member egress here. *)
  if not (Fault.Cluster_scenario.is_zero faults) then
    Array.iteri
      (fun m r ->
        for p = 0 to ports_per_member - 1 do
          Router.connect r ~port:p (fun f ->
              if not (Router.frame_escapable f) then
                let mb = member t m in
                mb.invalid_escapes <- mb.invalid_escapes + 1)
        done)
      rs;
  spawn_drivers t;
  spawn_churn_fibers t;
  Array.iter (fun r -> Router.start r) rs;
  t

let member_of_global_port t g =
  let ppm = t.members.(0).Router.config.Router.n_ports in
  (g / ppm, g mod ppm)

let engine_of_global_port t g =
  let m, _ = member_of_global_port t g in
  t.engines.(m)

let inject t ~global_port f =
  let m, p = member_of_global_port t global_port in
  (* Backpressure reaching all the way to the edge: while the member's
     uplink queue is past its high watermark, new external arrivals are
     refused at the port — the member cannot tell which frames would
     cross the fabric, so a congested uplink pushes back on the whole
     input path.  Bypass queues never pause, so the default path is
     unchanged. *)
  if Fabric_queue.paused t.eg_queues.(m) then begin
    let mb = member t m in
    mb.bp_refused <- mb.bp_refused + 1;
    false
  end
  else Router.inject t.members.(m) ~port:p f

let delivered t ~global_port =
  let m, p = member_of_global_port t global_port in
  Sim.Stats.Counter.value t.members.(m).Router.delivered.(p)

let delivered_total t =
  Array.fold_left
    (fun acc r ->
      let n = r.Router.config.Router.n_ports in
      let sum = ref 0 in
      for p = 0 to n - 1 do
        sum := !sum + Sim.Stats.Counter.value r.Router.delivered.(p)
      done;
      acc + !sum)
    0 t.members

let fabric_frames t = (fabric_counts t).offered

let internal_pps t =
  let secs = Sim.Engine.seconds (time t) in
  if secs <= 0. then 0. else float_of_int (fabric_frames t) /. secs

let vrp_budget_with_internal_link t ~line_rate_pps =
  let members = float_of_int (Array.length t.members) in
  (* One member's input contexts see its external share plus the fabric
     traffic addressed to it. *)
  let per_member = (line_rate_pps +. internal_pps t) /. members in
  Router.Capacity.vrp_budget Router.Capacity.default ~contexts:16
    ~line_rate_pps:per_member ~hashes:3

let member_up t m = (member t m).health.up
let crash_epochs t m = (member t m).health.crash_epochs
let route_churn_writes t = sum t (fun mb -> mb.churn_writes)

let recovery_latency_us t m =
  let l = (member t m).health.recovery_latency_us in
  if l < 0. then None else Some l

let frame_pool t m = (member t m).pool

let check_invariants t =
  let fresh = Fault.Invariant.check t.invariants in
  Array.fold_left (fun acc r -> acc + Router.check_invariants r) fresh t.members

let violations t =
  let tag name vs = List.map (fun v -> (name, v)) vs in
  let cluster = tag "cluster" (Fault.Invariant.violations t.invariants) in
  let members =
    List.concat
      (List.mapi
         (fun m r ->
           tag
             (Printf.sprintf "member%d" m)
             (Fault.Invariant.violations r.Router.invariants))
         (Array.to_list t.members))
  in
  cluster @ members

let invariants_ok t = violations t = []

let run_for t ~us =
  let target =
    t.st.clock_ps + Int64.to_int (Sim.Engine.of_seconds (us *. 1e-6))
  in
  run_epochs t ~target_ps:target;
  (* Every pause is a barrier: the worker domains are joined, so the
     audit reads every member's state race-free (pure reads — the
     zero-fault schedule is untouched). *)
  ignore (check_invariants t : int)

let telemetry_snapshot t =
  Telemetry.Json.Obj
    [
      ("cluster", Telemetry.Registry.snapshot t.st.telemetry);
      ( "members",
        Telemetry.Json.List
          (Array.to_list (Array.map Router.telemetry_snapshot t.members)) );
    ]

let member_metrics_md5 t m =
  Digest.to_hex
    (Digest.string
       (Telemetry.Json.to_string (Router.telemetry_snapshot t.members.(m))))
