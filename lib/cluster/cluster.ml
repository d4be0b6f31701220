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

(* A frame crossing the fabric, parked in the destination member's
   mailbox until that member's next epoch begins.  [src_seq] is the
   sender's monotonic fabric-send counter: together with [arrival_ps]
   and [src] it gives every message a unique, execution-order-free key,
   so the drain can sort arrivals into one canonical order no matter
   which domain appended first. *)
type fabric_msg = {
  arrival_ps : int;
  src : int;
  src_seq : int;
  dst_port : int;
  frame : Packet.Frame.t;
}

(* Per-member mailbox, double-buffered by epoch parity: during an epoch
   of parity [p] every sender appends to [pending.(p)], while the owner
   drained [pending.(1-p)] (everything sent during the previous epoch)
   at the epoch's start.  One barrier per epoch keeps the two buffers
   disjointly owned; the mutex only orders concurrent appenders. *)
type inbox = { ilock : Mutex.t; pending : fabric_msg list array }

type t = {
  engines : Sim.Engine.t array;
  members : Router.t array;
  switch_latency_us : float;
  domains : int;
  faults : Fault.Cluster_scenario.t;
  latency_ps : int; (* switch_latency_us = epoch length, integer ps *)
  clock_ps : int ref; (* cluster barrier clock *)
  mutable epoch : int; (* epochs completed since create *)
  (* Deterministic per-member damage streams: egress draws on the
     sending side, ingress draws on the receiving side.  Never shared
     across members, so the draw order is independent of event
     interleaving between engines. *)
  egress_rng : Sim.Rng.t array;
  ingress_rng : Sim.Rng.t array;
  (* Control-plane churn: per-member streams (split after the queue
     streams, so enabling churn never shifts an existing draw) and a
     member-sharded count of routing-table writes the churn driver
     performed — its "damage injected" measure. *)
  churn_rng : Sim.Rng.t array;
  churn_writes : int array;
  (* Fabric accounting, sharded by the member whose domain mutates it:
     egress counters index the sender, ingress counters the receiver.
     Cluster totals are sums, read only at barriers. *)
  offered_by : int array;
  launched_by : int array;
  eg_dropped_link : int array;
  eg_dropped_unknown : int array;
  eg_corrupted : int array;
  eg_stalled : int array;
  settled_to : int array;
  in_dropped_link : int array;
  in_dropped_down : int array;
  in_corrupted : int array;
  in_stalled : int array;
  attempts_to : int array;
  delivered_to : int array;
  refused_to : int array;
  (* Finite fabric queues (PR 6): [eg_queues.(m)] sits between member
     [m]'s uplinks and the switch (owned by [m]'s engine); [in_queues.(m)]
     is the switch egress port towards [m] (owned by [m]'s engine, where
     arrivals already run).  Mutable only because their deliver closures
     need [t]; assigned once inside [create].  [in_q_dropped] counts
     ingress-queue drops (settled, dst-sharded); [bp_refused] counts
     external injects refused by egress backpressure (member-sharded). *)
  fabric_queue : Fabric_queue.config;
  mutable eg_queues : (int * Packet.Frame.t) Fabric_queue.t array;
  mutable in_queues : (int * Packet.Frame.t) Fabric_queue.t array;
  in_q_dropped : int array;
  bp_refused : int array;
  inboxes : inbox array;
  send_seq : int array;
  cur_parity : int array; (* per member: parity of the epoch it is in *)
  health : member_health array;
  invariants : Fault.Invariant.t;
  telemetry : Telemetry.Registry.t;
  member_scopes : Telemetry.Scope.t array;
  frame_pools : Packet.Frame_pool.t array; (* [||] unless [~frame_pool] *)
  invalid_escapes : int array;
  pending_violations : string list array;
}

(* Locally-administered, distinct from the per-port scheme. *)
let uplink_mac m = 0x02000000C100 lor (m land 0xFF)

let member_of_uplink_mac mac =
  if mac land 0xFFFFFFFF00 = 0x02000000C100 land 0xFFFFFFFF00 then
    Some (mac land 0xFF)
  else None

let time t = Int64.of_int !(t.clock_ps)

(* The cluster clock, as the barrier audits read it. *)
let now_us t = Sim.Engine.seconds (time t) *. 1e6

(* The clock of member [m]'s engine: what code running in one of [m]'s
   fibers reads (identical in sequential and parallel runs — the member
   executes the same events at the same times). *)
let member_now_us t m =
  Sim.Engine.seconds (Sim.Engine.time t.engines.(m)) *. 1e6

(* A scope event stamped with member [m]'s engine clock. *)
let member_event t m what =
  Telemetry.Scope.event_at t.member_scopes.(m)
    ~at:(Sim.Engine.time t.engines.(m))
    what

(* Long enough for anything launched before the damage ended to settle:
   both fabric hops plus slack. *)
let grace_us t = (4. *. t.switch_latency_us) +. 100.

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
  let h = t.health.(m) in
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
  let h = t.health.(m) in
  h.quiet_since_us <- member_now_us t m;
  h.attempts_at_quiet <- t.attempts_to.(m);
  h.delivered_at_quiet <- t.delivered_to.(m);
  h.refused_at_quiet <- t.refused_to.(m)

let do_restart t m =
  let h = t.health.(m) in
  let rx = uplink_rx t m in
  (* The uplink MACs must not have accepted anything while dead; audit at
     the rejoin so a one-shot crash window cannot dodge the barrier. *)
  if rx <> h.uplink_rx_at_crash then
    t.pending_violations.(m) <-
      Printf.sprintf "member %d's uplinks accepted %d frame(s) while crashed" m
        (rx - h.uplink_rx_at_crash)
      :: t.pending_violations.(m);
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
          t.faults.events
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
              let rng = t.churn_rng.(m) in
              let routes = t.members.(m).Router.routes in
              let ppm = t.members.(m).Router.config.Router.n_ports in
              let installed = ref [] in
              while Sim.Engine.clock_i engine < end_ps do
                (* A crashed member's control plane is down with it: no
                   writes and no draws until it rejoins, so the stream
                   stays aligned with the deterministic health
                   schedule. *)
                if t.health.(m).up then begin
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
                  t.churn_writes.(m) <- t.churn_writes.(m) + 1
                end;
                Sim.Engine.wait_in engine period_ps
              done))
        (churn_events t.faults ~member:m))
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

(* Every terminal outcome on the receiving side increments [settled_to]
   in the same step it books the cause, so fabric conservation holds at
   any barrier, including one landing mid-stall or mid-queue. *)
let settle t ~dst bucket =
  bucket.(dst) <- bucket.(dst) + 1;
  t.settled_to.(dst) <- t.settled_to.(dst) + 1

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
   ingress queue's service completion.  Runs on [dst]'s engine. *)
let uplink_tx t ~dst (port, f) =
  let h = t.health.(dst) in
  if not h.up then settle t ~dst t.in_dropped_down
  else begin
    t.attempts_to.(dst) <- t.attempts_to.(dst) + 1;
    if Router.inject t.members.(dst) ~port f then begin
      if h.awaiting_recovery then begin
        h.recovery_latency_us <- member_now_us t dst -. h.up_since_us;
        h.awaiting_recovery <- false
      end;
      settle t ~dst t.delivered_to
    end
    else if
      Ixp.Mac_port.link_up t.members.(dst).Router.chip.Ixp.Chip.ports.(port)
    then settle t ~dst t.refused_to
    else settle t ~dst t.in_dropped_down
  end

(* The egress port's finite queue admits the frame; the default bypass
   queue hands it to {!uplink_tx} synchronously, reproducing the
   pre-queueing fabric byte for byte. *)
let enqueue_ingress t ~dst ~port f =
  if
    not
      (Fabric_queue.offer t.in_queues.(dst) ~cls:(frame_class f)
         ~len:(Packet.Frame.len f) (port, f))
  then settle t ~dst t.in_q_dropped

(* A frame arrives at the switch egress port towards [dst] after the
   switch latency.  Runs as an engine callback on the destination's
   engine, so every counter it touches is destination-sharded.  After
   the link-damage stage, and a stall if one is in force (the rest then
   runs as a second callback that much later), it enters the egress
   port's queue. *)
let deliver_fabric t ~dst ~port f =
  let at_us = member_now_us t dst in
  let h = t.health.(dst) in
  let rng = t.ingress_rng.(dst) in
  if not h.up then settle t ~dst t.in_dropped_down
  else if
    fires rng (Fault.Cluster_scenario.drop_rate t.faults ~member:dst ~at_us)
  then settle t ~dst t.in_dropped_link
  else begin
    let f =
      if
        fires rng
          (Fault.Cluster_scenario.corrupt_rate t.faults ~member:dst ~at_us)
      then begin
        t.in_corrupted.(dst) <- t.in_corrupted.(dst) + 1;
        corrupt_copy rng f
      end
      else f
    in
    let stall = Fault.Cluster_scenario.stall_us t.faults ~member:dst ~at_us in
    if stall > 0. then begin
      t.in_stalled.(dst) <- t.in_stalled.(dst) + 1;
      let e = t.engines.(dst) in
      Sim.Engine.call_at e
        ~at:
          (Sim.Engine.clock_i e
          + Int64.to_int (Sim.Engine.of_seconds (stall *. 1e-6)))
        (fun () -> enqueue_ingress t ~dst ~port f)
    end
    else enqueue_ingress t ~dst ~port f
  end

(* Drain everything sent to member [m] during the previous epoch and
   schedule each arrival on [m]'s engine at its absolute timestamp.  The
   sort gives a canonical order independent of which sender appended
   first, so the receiver assigns the same event sequence numbers in
   sequential and parallel runs — the heart of the bit-for-bit
   identity. *)
let drain_inbox t m ~parity =
  let ib = t.inboxes.(m) in
  Mutex.lock ib.ilock;
  let msgs = ib.pending.(1 - parity) in
  ib.pending.(1 - parity) <- [];
  Mutex.unlock ib.ilock;
  match msgs with
  | [] -> ()
  | msgs ->
      let msgs =
        List.stable_sort
          (fun a b ->
            if a.arrival_ps <> b.arrival_ps then
              compare a.arrival_ps b.arrival_ps
            else if a.src <> b.src then compare a.src b.src
            else compare a.src_seq b.src_seq)
          msgs
      in
      List.iter
        (fun msg ->
          Sim.Engine.call_at t.engines.(m) ~at:msg.arrival_ps (fun () ->
              deliver_fabric t ~dst:m ~port:msg.dst_port msg.frame))
        msgs

(* The learning switch, egress side: a frame that cleared the member's
   uplink queue goes onto the wire into the switch.  Runs on the sending
   member's engine: in the uplink queue's service-completion callback,
   or in the sender's own fiber under bypass.  Damage draws use the sender's
   stream.  The fabric owns the frame it carries: the uplink MAC handed
   it over as a fresh unpooled [prefix_copy] (see {!send_fabric}), so
   the sender's recycling buffer pool can never reuse bytes the
   receiving domain still holds, and the receiver's recycler ignores
   it.  The corrupt path damages a copy. *)
let launch_fabric t ~src (port, f) =
  let at_us = member_now_us t src in
  let rng = t.egress_rng.(src) in
  if fires rng (Fault.Cluster_scenario.drop_rate t.faults ~member:src ~at_us)
  then t.eg_dropped_link.(src) <- t.eg_dropped_link.(src) + 1
  else begin
    let f =
      if
        fires rng
          (Fault.Cluster_scenario.corrupt_rate t.faults ~member:src ~at_us)
      then begin
        t.eg_corrupted.(src) <- t.eg_corrupted.(src) + 1;
        corrupt_copy rng f
      end
      else f
    in
    let unknown () =
      t.eg_dropped_unknown.(src) <- t.eg_dropped_unknown.(src) + 1
    in
    match member_of_uplink_mac (Packet.Ethernet.get_dst f) with
    | None -> unknown ()
    | Some d when d >= Array.length t.members -> unknown ()
    | Some d ->
        t.launched_by.(src) <- t.launched_by.(src) + 1;
        let stall =
          Fault.Cluster_scenario.stall_us t.faults ~member:src ~at_us
        in
        let stall_ps =
          if stall > 0. then begin
            t.eg_stalled.(src) <- t.eg_stalled.(src) + 1;
            Int64.to_int (Sim.Engine.of_seconds (stall *. 1e-6))
          end
          else 0
        in
        (* Integer arithmetic keeps the conservative bound exact:
           arrival - send >= latency_ps, the epoch length. *)
        let arrival =
          Sim.Engine.clock_i t.engines.(src) + t.latency_ps + stall_ps
        in
        let seq = t.send_seq.(src) in
        t.send_seq.(src) <- seq + 1;
        let msg =
          { arrival_ps = arrival; src; src_seq = seq; dst_port = port; frame = f }
        in
        let ib = t.inboxes.(d) in
        Mutex.lock ib.ilock;
        ib.pending.(t.cur_parity.(src)) <-
          msg :: ib.pending.(t.cur_parity.(src));
        Mutex.unlock ib.ilock
  end

(* A frame leaving a member's uplink MAC first enters that uplink's
   finite queue; {!launch_fabric} is its service completion.  The frame
   the MAC hands us is already a fresh unpooled copy
   ({!Ixp.Mac_port.transmit_frame} sinks a [prefix_copy]), so holding it
   across the queueing delay is safe.  The default bypass queue calls
   {!launch_fabric} synchronously — the pre-queueing fabric, byte for
   byte. *)
let send_fabric t ~src ~port f =
  t.offered_by.(src) <- t.offered_by.(src) + 1;
  ignore
    (Fabric_queue.offer t.eg_queues.(src) ~cls:(frame_class f)
       ~len:(Packet.Frame.len f) (port, f)
      : bool)

let wire_switch t =
  let uplink_local = t.members.(0).Router.config.Router.n_ports in
  let gated = not (Fabric_queue.is_bypass t.fabric_queue) in
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
  let start = !(t.clock_ps) in
  if target_ps > start then begin
    let members = Array.length t.members in
    let nd = t.domains in
    let l = t.latency_ps in
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
        t.cur_parity.(!m) <- parity;
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
    t.clock_ps := target_ps;
    Array.iter
      (function
        | Some (ex, bt) -> Printexc.raise_with_backtrace ex bt | None -> ())
      errors
  end

(* --- invariants and telemetry ------------------------------------------ *)

let sum = Array.fold_left ( + ) 0
let qsum f qs = Array.fold_left (fun acc q -> acc + f q) 0 qs

(* Queue drops on the egress side (tail, RED, crash-flushed) never reach
   [launched_by]/[settled_to]; ingress-queue drops settle via
   [in_q_dropped].  Frames sitting in either queue are "queued". *)
let eg_queue_dropped t =
  qsum Fabric_queue.dropped t.eg_queues + qsum Fabric_queue.flushed t.eg_queues

let queued_frames t =
  qsum Fabric_queue.occupancy t.eg_queues
  + qsum Fabric_queue.occupancy t.in_queues

let register_invariants t =
  let reg = Fault.Invariant.register t.invariants in
  reg "fabric-conservation" (fun () ->
      let offered = sum t.offered_by in
      let in_occ = qsum Fabric_queue.occupancy t.in_queues in
      let eg_occ = qsum Fabric_queue.occupancy t.eg_queues in
      (* On the wire or paying an injected stall: launched but neither
         settled nor parked in a switch egress queue. *)
      let in_flight = sum t.launched_by - sum t.settled_to - in_occ in
      let settled =
        sum t.delivered_to
        + (sum t.eg_dropped_link + sum t.in_dropped_link)
        + sum t.in_dropped_down + sum t.eg_dropped_unknown + sum t.refused_to
        + sum t.in_q_dropped + eg_queue_dropped t
      in
      if settled + in_flight + eg_occ + in_occ <> offered then
        Some
          (Printf.sprintf
             "fabric offered %d frames but %d settled + %d in flight + %d \
              queued"
             offered settled in_flight (eg_occ + in_occ))
      else None);
  reg "no-escape-to-crashed" (fun () ->
      let msgs =
        List.concat (Array.to_list (Array.map List.rev t.pending_violations))
      in
      if msgs <> [] then begin
        Array.fill t.pending_violations 0 (Array.length t.pending_violations) [];
        Some (String.concat "; " msgs)
      end
      else begin
        let bad = ref None in
        Array.iteri
          (fun m h ->
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
          t.health;
        !bad
      end);
  reg "membership-state" (fun () ->
      let at_us = now_us t in
      let bad = ref None in
      Array.iteri
        (fun m h ->
          (* A barrier can land exactly on a crash/restart edge, where
             float rounding of the picosecond clock puts [at_us] an
             epsilon on either side of the scheduled instant: only flag a
             member whose state disagrees with the schedule on BOTH sides
             of the edge. *)
          let crashed_at at_us =
            Fault.Cluster_scenario.crashed t.faults ~member:m ~at_us
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
        t.health;
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
        (fun m h ->
          if
            !bad = None && h.up
            && not
                 (Fault.Cluster_scenario.member_active t.faults ~member:m
                    ~at_us)
            && at_us -. Float.max h.up_since_us h.quiet_since_us >= grace_us t
          then begin
            let attempts = t.attempts_to.(m) - h.attempts_at_quiet in
            let progressed =
              t.delivered_to.(m) - h.delivered_at_quiet
              + (t.refused_to.(m) - h.refused_at_quiet)
            in
            if attempts >= 20 && progressed = 0 then
              bad :=
                Some
                  (Printf.sprintf
                     "member %d: %d fabric frames addressed since \
                      rejoin/quiet but none reached its uplink"
                     m attempts)
          end)
        t.health;
      !bad);
  reg "no-invalid-escape"
    (let seen = ref 0 in
     fun () ->
       let n = sum t.invalid_escapes in
       if n > !seen then begin
         let fresh = n - !seen in
         seen := n;
         Some
           (Printf.sprintf
              "%d malformed frame(s) escaped member external ports" fresh)
       end
       else None)

let register_telemetry t =
  let fab = Telemetry.Registry.scope t.telemetry "fabric" in
  let g name f = Telemetry.Scope.gauge_int fab name f in
  g "frames" (fun () -> sum t.offered_by);
  g "delivered" (fun () -> sum t.delivered_to);
  g "dropped_link" (fun () -> sum t.eg_dropped_link + sum t.in_dropped_link);
  g "dropped_down" (fun () -> sum t.in_dropped_down);
  g "dropped_unknown" (fun () -> sum t.eg_dropped_unknown);
  g "rx_refused" (fun () -> sum t.refused_to);
  g "corrupted" (fun () -> sum t.eg_corrupted + sum t.in_corrupted);
  g "stalled" (fun () -> sum t.eg_stalled + sum t.in_stalled);
  g "in_flight" (fun () ->
      sum t.launched_by - sum t.settled_to
      - qsum Fabric_queue.occupancy t.in_queues);
  g "queued" (fun () -> queued_frames t);
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
  g "bp_refused" (fun () -> sum t.bp_refused);
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
    (fun m scope ->
      let h = t.health.(m) in
      let r = t.members.(m) in
      let n = r.Router.config.Router.n_ports in
      let ports = r.Router.chip.Ixp.Chip.ports in
      Telemetry.Scope.gauge_int scope "up" (fun () -> if h.up then 1 else 0);
      Telemetry.Scope.gauge_int scope "crash_epochs" (fun () -> h.crash_epochs);
      Telemetry.Scope.gauge scope "recovery_latency_us" (fun () ->
          h.recovery_latency_us);
      Telemetry.Scope.gauge_int scope "fabric_attempts" (fun () ->
          t.attempts_to.(m));
      Telemetry.Scope.gauge_int scope "fabric_delivered" (fun () ->
          t.delivered_to.(m));
      Telemetry.Scope.gauge_int scope "fabric_refused" (fun () ->
          t.refused_to.(m));
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
      Telemetry.Scope.gauge_int scope "bp_refused" (fun () ->
          t.bp_refused.(m));
      Telemetry.Scope.gauge_int scope "route_churn_writes" (fun () ->
          t.churn_writes.(m));
      Telemetry.Scope.gauge_int scope "route_count" (fun () ->
          Iproute.Table.size r.Router.routes))
    t.member_scopes

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
  (* The conservative bound: the fabric's minimum latency is the switch
     latency (stalls only add), so it is also the epoch length — how far
     a member may run ahead of its peers. *)
  let switch_latency_us = 2. in
  let latency_ps =
    Int64.to_int (Sim.Engine.of_seconds (switch_latency_us *. 1e-6))
  in
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
  let frame_pools =
    if not frame_pool then [||]
    else
      Array.map
        (fun r ->
          let pool =
            Packet.Frame_pool.create ~max_frames:4096 ~frame_bytes:512 ()
          in
          Router.set_frame_pool r pool;
          pool)
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
  let clock_ps = ref 0 in
  let telemetry = Telemetry.Registry.create () in
  let member_scopes =
    Array.init members (fun m ->
        Telemetry.Registry.scope telemetry "member"
          ~labels:[ ("id", string_of_int m) ])
  in
  (* Per-member deterministic damage streams, split off one master in
     fixed member order; creation draws nothing downstream, so the zero
     scenario still never consumes randomness. *)
  let master = Sim.Rng.create faults.Fault.Cluster_scenario.seed in
  let egress_rng = Array.make members master in
  let ingress_rng = Array.make members master in
  for m = 0 to members - 1 do
    egress_rng.(m) <- Sim.Rng.split master;
    ingress_rng.(m) <- Sim.Rng.split master
  done;
  (* Queue streams (RED's early-drop draws) split *after* the damage
     streams, in member order, so enabling queueing never shifts an
     existing stream — and the bypass queue never draws, so a cluster
     without queueing still consumes exactly the old randomness. *)
  let eg_q_rng = Array.make members master in
  let in_q_rng = Array.make members master in
  for m = 0 to members - 1 do
    eg_q_rng.(m) <- Sim.Rng.split master;
    in_q_rng.(m) <- Sim.Rng.split master
  done;
  (* Churn streams split after the queue streams for the same reason:
     adding route churn to a scenario never shifts damage or RED
     draws. *)
  let churn_rng = Array.make members master in
  for m = 0 to members - 1 do
    churn_rng.(m) <- Sim.Rng.split master
  done;
  let invariants =
    Fault.Invariant.create
      ~scope:(Telemetry.Registry.scope telemetry "invariant")
      ~clock:(fun () -> Int64.of_int !clock_ps)
      ()
  in
  let t =
    {
      engines;
      members = rs;
      switch_latency_us;
      domains;
      faults;
      latency_ps;
      clock_ps;
      epoch = 0;
      egress_rng;
      ingress_rng;
      churn_rng;
      churn_writes = Array.make members 0;
      offered_by = Array.make members 0;
      launched_by = Array.make members 0;
      eg_dropped_link = Array.make members 0;
      eg_dropped_unknown = Array.make members 0;
      eg_corrupted = Array.make members 0;
      eg_stalled = Array.make members 0;
      settled_to = Array.make members 0;
      in_dropped_link = Array.make members 0;
      in_dropped_down = Array.make members 0;
      in_corrupted = Array.make members 0;
      in_stalled = Array.make members 0;
      attempts_to = Array.make members 0;
      delivered_to = Array.make members 0;
      refused_to = Array.make members 0;
      fabric_queue;
      eg_queues = [||];
      in_queues = [||];
      in_q_dropped = Array.make members 0;
      bp_refused = Array.make members 0;
      inboxes =
        Array.init members (fun _ ->
            { ilock = Mutex.create (); pending = Array.make 2 [] });
      send_seq = Array.make members 0;
      cur_parity = Array.make members 0;
      health =
        Array.init members (fun _ ->
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
            });
      invariants;
      telemetry;
      member_scopes;
      frame_pools;
      invalid_escapes = Array.make members 0;
      pending_violations = Array.make members [];
    }
  in
  (* The deliver closures need [t], so the queues are assigned right
     after it exists (and before anything can run).  Creation draws
     nothing from the queue streams. *)
  t.eg_queues <-
    Array.init members (fun m ->
        Fabric_queue.create ~engine:engines.(m) ~cfg:fabric_queue
          ~rng:eg_q_rng.(m)
          ~deliver:(fun item -> launch_fabric t ~src:m item)
          ());
  t.in_queues <-
    Array.init members (fun m ->
        Fabric_queue.create ~engine:engines.(m) ~cfg:fabric_queue
          ~rng:in_q_rng.(m)
          ~deliver:(fun item -> uplink_tx t ~dst:m item)
          ());
  Telemetry.Registry.set_clock telemetry (fun () -> time t);
  register_telemetry t;
  register_invariants t;
  wire_switch t;
  (* Members run fault-free routers, so their own sinks do not audit
     escapes; under a cluster fault scenario the fabric can corrupt
     frames, so audit member egress here. *)
  if not (Fault.Cluster_scenario.is_zero faults) then
    Array.iteri
      (fun m r ->
        for p = 0 to ports_per_member - 1 do
          Router.connect r ~port:p (fun f ->
              if not (Router.frame_escapable f) then
                t.invalid_escapes.(m) <- t.invalid_escapes.(m) + 1)
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
    t.bp_refused.(m) <- t.bp_refused.(m) + 1;
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

let fabric_frames t = sum t.offered_by

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

let fabric_counts t =
  {
    offered = sum t.offered_by;
    delivered = sum t.delivered_to;
    dropped_link = sum t.eg_dropped_link + sum t.in_dropped_link;
    dropped_down = sum t.in_dropped_down;
    dropped_unknown = sum t.eg_dropped_unknown;
    dropped_queue = eg_queue_dropped t + sum t.in_q_dropped;
    rx_refused = sum t.refused_to;
    corrupted = sum t.eg_corrupted + sum t.in_corrupted;
    stalled = sum t.eg_stalled + sum t.in_stalled;
    in_flight =
      sum t.launched_by - sum t.settled_to
      - qsum Fabric_queue.occupancy t.in_queues;
    queued = queued_frames t;
    bp_refused = sum t.bp_refused;
  }

let member_up t m = t.health.(m).up
let crash_epochs t m = t.health.(m).crash_epochs
let route_churn_writes t = sum t.churn_writes

let recovery_latency_us t m =
  let l = t.health.(m).recovery_latency_us in
  if l < 0. then None else Some l

let frame_pool t m =
  if Array.length t.frame_pools = 0 then None else Some t.frame_pools.(m)

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
    !(t.clock_ps) + Int64.to_int (Sim.Engine.of_seconds (us *. 1e-6))
  in
  run_epochs t ~target_ps:target;
  (* Every pause is a barrier: the worker domains are joined, so the
     audit reads every member's state race-free (pure reads — the
     zero-fault schedule is untouched). *)
  ignore (check_invariants t : int)

let telemetry_snapshot t =
  Telemetry.Json.Obj
    [
      ("cluster", Telemetry.Registry.snapshot t.telemetry);
      ( "members",
        Telemetry.Json.List
          (Array.to_list (Array.map Router.telemetry_snapshot t.members)) );
    ]

let member_metrics_md5 t m =
  Digest.to_hex
    (Digest.string
       (Telemetry.Json.to_string (Router.telemetry_snapshot t.members.(m))))
