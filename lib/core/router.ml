module Cost_model = Cost_model
module Vrp = Vrp
module Chip_ctx = Chip_ctx
module Desc = Desc
module Squeue = Squeue
module Forwarder = Forwarder
module Classifier = Classifier
module Input_loop = Input_loop
module Output_loop = Output_loop
module Fixed_infra = Fixed_infra
module Strongarm = Strongarm
module Pentium = Pentium
module Psched = Psched
module Admission = Admission
module Iface = Iface
module Capacity = Capacity
module Wfq = Wfq

type config = {
  hw : Ixp.Config.t;
  cm : Cost_model.t;
  n_ports : int;
  port_mbps : float;
  uplink_ports : int;
  uplink_mbps : float;
  n_input_contexts : int;
  n_output_contexts : int;
  sa_wakeup : Strongarm.wakeup;
  queue_capacity : int;
  route_engine : Iproute.Table.engine;
  selective_invalidation : bool;
  circular_buffers : bool;
  batch_mps : int;
  faults : Fault.Scenario.t;
}

let default_config =
  {
    hw = Ixp.Config.default;
    cm = Cost_model.default;
    n_ports = 8;
    port_mbps = 100.;
    uplink_ports = 0;
    uplink_mbps = 1000.;
    n_input_contexts = 16;
    n_output_contexts = 8;
    sa_wakeup = Strongarm.Polling;
    queue_capacity = 2048;
    route_engine = Iproute.Table.Poptrie;
    selective_invalidation = false;
    circular_buffers = true;
    batch_mps = 16;
    faults = Fault.Scenario.zero;
  }

type t = {
  config : config;
  engine : Sim.Engine.t;
  chip : Ixp.Chip.t;
  routes : Iproute.Table.t;
  nexthops : Iproute.Table.nexthop array;
  classifier : Classifier.t;
  iface : Iface.t;
  sa : Strongarm.t;
  pe : Pentium.t;
  out_queues : Squeue.t array;
  istats : Input_loop.stats;
  ostats : Output_loop.stats;
  delivered : Sim.Stats.Counter.t array;
  latency : Sim.Stats.Histogram.t;
  telemetry : Telemetry.Registry.t;
  input_scope : Telemetry.Scope.t;
  output_scope : Telemetry.Scope.t;
  injector : Fault.Injector.t option;
  invariants : Fault.Invariant.t;
  invalid_escapes : int ref;
  vrp_detected : int ref;
  delivery_digests : string array option ref;
  digest_scratch : Bytes.t ref;
  mutable frame_pool : Packet.Frame_pool.t option;
  (* Preallocated input-loop targets for the per-packet path: the
     verdict for routed traffic, a forwarder's fixed-port steer and a
     plain StrongARM divert is one of a small fixed set of [To_queue]
     records, so they are built once here instead of per packet.
     [sa_targets] is indexed by [routed_out + 1] (the divert verdict
     varies only in which port the route named, -1 for none).  Verdicts
     beyond these shapes (diverts naming an installed forwarder, garbage
     ports) still allocate on their rare paths. *)
  port_targets : Input_loop.target array;
  sa_targets : Input_loop.target array;
  sa_ttl_target : Input_loop.target;
}

(* A port's peer sits at MAC [100 + port]. *)
let make_nexthop port =
  {
    Iproute.Table.out_port = port;
    gateway_mac = Packet.Ethernet.mac_of_port (100 + port);
  }

let mes_used ~n = (n + 3) / 4

(* Writes the decimal digits of [n >= 0] at [pos]; returns the end. *)
let write_decimal b pos n =
  let rec width n k = if n < 10 then k else width (n / 10) (k + 1) in
  let stop = pos + width n 1 in
  let rec fill n i =
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
    if n >= 10 then fill (n / 10) (i - 1)
  in
  fill n (stop - 1);
  stop

(* One link of a port's delivery-digest chain:
   [MD5 (prev ^ string_of_int time ^ "|" ^ frame bytes)], with the input
   assembled in [scratch] (grown on demand), so a delivered frame costs
   the MD5 and its 16-byte result only. *)
let digest_fold scratch prev ~time f =
  if time < 0 then invalid_arg "Router.digest_fold: negative time";
  let plen = String.length prev and len = Packet.Frame.len f in
  let need = plen + 21 + len in
  if Bytes.length !scratch < need then
    scratch := Bytes.create (max need (2 * Bytes.length !scratch));
  let b = !scratch in
  Bytes.blit_string prev 0 b 0 plen;
  let bar = write_decimal b plen time in
  Bytes.unsafe_set b bar '|';
  Bytes.blit f.Packet.Frame.data 0 b (bar + 1) len;
  Digest.subbytes b 0 (bar + 1 + len)

let total_ports config = config.n_ports + config.uplink_ports

(* Would a downstream host accept this frame?  The no-invalid-escape
   invariant: damage injected at the MACs or FIFOs may drop packets, but a
   frame that leaves an output port must still be well-formed. *)
let frame_escapable f =
  Packet.Frame.len f >= 14
  &&
  let et = Packet.Ethernet.get_ethertype f in
  if et = Packet.Ethernet.ethertype_ipv4 then Packet.Ipv4.valid f
  else et = Packet.Mpls.ethertype

let create ?(config = default_config) ?(alloc_gauges = false) ?engine () =
  let engine =
    match engine with Some e -> e | None -> Sim.Engine.create ()
  in
  let n_all = total_ports config in
  let delivered =
    Array.init n_all (fun _ -> Sim.Stats.Counter.create ())
  in
  let latency = Sim.Stats.Histogram.create "latency_ps" in
  (* Telemetry: every level registers its instruments once; the registry
     snapshots on demand (--metrics, robustness benches).  Created before
     the chip so the fault plane, when enabled, can register its scope. *)
  let telemetry = Telemetry.Registry.create () in
  Telemetry.Registry.set_clock telemetry (fun () -> Sim.Engine.time engine);
  (* The fault plane: nothing is built for the zero scenario, so the
     fault-free router is byte-identical to one compiled without this
     subsystem — same timing, same RNG draws, same telemetry snapshot. *)
  let injector =
    if Fault.Scenario.is_zero config.faults then None
    else
      Some
        (Fault.Injector.create
           ~scope:(Telemetry.Registry.scope telemetry "fault")
           config.faults)
  in
  let invalid_escapes = ref 0 in
  let vrp_detected = ref 0 in
  (* Per-port delivery-schedule digest, lazily enabled: each delivered
     frame folds (time ‖ bytes) into its port's chained MD5.  This is the
     equivalence gate's observable — batched and unbatched executions must
     produce identical digests on every port — and it costs nothing until
     {!enable_delivery_digest} arms it. *)
  let delivery_digests = ref None in
  let digest_scratch = ref (Bytes.create 256) in
  let digest_note i f =
    match !delivery_digests with
    | None -> ()
    | Some d ->
        d.(i) <-
          digest_fold digest_scratch d.(i) ~time:(Sim.Engine.clock_i engine) f
  in
  let deliver_to i =
    match injector with
    | None ->
        fun f ->
          digest_note i f;
          Sim.Stats.Counter.incr delivered.(i)
    | Some _ ->
        fun f ->
          if not (frame_escapable f) then incr invalid_escapes;
          digest_note i f;
          Sim.Stats.Counter.incr delivered.(i)
  in
  let ports =
    List.init n_all (fun i ->
        {
          Ixp.Chip.mbps =
            (if i < config.n_ports then config.port_mbps
             else config.uplink_mbps);
          sink = Some (deliver_to i);
        })
  in
  let chip =
    Ixp.Chip.create ~cfg:config.hw ~ports
      ~circular_buffers:config.circular_buffers engine
  in
  (* The built-in per-port sinks only fold the frame into the delivery
     digest and bump a counter — synchronous consumers that never retain
     the frame — so the MAC may lend the DRAM buffer instead of copying
     every delivered packet.  {!connect} installs a user sink through
     [set_sink], which restores per-frame copies. *)
  Array.iter
    (fun p -> Ixp.Mac_port.set_sink_borrows p true)
    chip.Ixp.Chip.ports;
  let routes =
    Iproute.Table.create ~cache_slots:8192
      ~selective_invalidation:config.selective_invalidation ()
  in
  let classifier = Classifier.create config.cm ~routes in
  let n_in_me = mes_used ~n:config.n_input_contexts in
  let iface =
    Iface.create ~chip ~classifier ~input_mes:(List.init n_in_me Fun.id) ()
  in
  let out_queues =
    Array.init n_all (fun i ->
        Squeue.create
          ~name:(Printf.sprintf "port%d" i)
          ~capacity:config.queue_capacity ())
  in
  let out_enqueue ctx desc =
    if desc.Desc.out_port < 0 then false (* never routed: drop *)
    else begin
      let q = out_queues.(desc.Desc.out_port mod n_all) in
      Input_loop.enqueue_protected config.cm ctx q desc
    end
  in
  let lookup_fid fid = Iface.find iface fid in
  (* The router's own per-port addresses (10.254.<port>.1), used as the
     source of ICMP errors the slow path generates. *)
  let icmp_addr port =
    Int32.of_int ((10 lsl 24) lor (254 lsl 16) lor ((port land 0xFF) lsl 8) lor 1)
  in
  let sa =
    Strongarm.create chip config.cm ~wakeup:config.sa_wakeup ~icmp_addr
      ~lookup_fid ~routes ~out_enqueue ()
  in
  let pe =
    Pentium.create chip config.cm ~from_sa:sa.Strongarm.to_pe
      ~returns:sa.Strongarm.returns ~lookup_fid ()
  in
  (* Wire the Pentium's proportional-share client management into the
     control interface. *)
  Iface.set_pe_hooks iface
    ~add:(fun ~fid entry ->
      Pentium.add_flow_client pe ~fid
        ~name:entry.Classifier.fwdr.Forwarder.name ~share:1.0)
    ~remove:(fun ~fid -> Pentium.remove_flow_client pe ~fid);
  let istats = Input_loop.make_stats () in
  let ostats = Output_loop.make_stats () in
  (match injector with
  | None -> ()
  | Some inj ->
      Ixp.Chip.set_faults chip inj;
      Strongarm.set_faults sa inj;
      Pentium.set_faults pe inj);
  (* The invariant registry audits all three levels at simulation
     barriers; its telemetry scope exists only alongside an injector so
     zero-fault snapshots are unchanged. *)
  let invariants =
    Fault.Invariant.create
      ?scope:
        (match injector with
        | None -> None
        | Some _ -> Some (Telemetry.Registry.scope telemetry "invariant"))
      ~clock:(fun () -> Sim.Engine.time engine)
      ()
  in
  Fault.Invariant.register invariants "buffer-pool-conservation" (fun () ->
      Ixp.Buffer_pool.check chip.Ixp.Chip.buffers);
  Fault.Invariant.register invariants "queue-accounting" (fun () ->
      let first_bad acc q =
        match acc with Some _ -> acc | None -> Squeue.check q
      in
      match Array.fold_left first_bad None out_queues with
      | Some v -> Some v
      | None ->
          Array.fold_left first_bad
            (Squeue.check sa.Strongarm.local_q)
            sa.Strongarm.pe_qs);
  Fault.Invariant.register invariants "no-invalid-escape"
    (let seen = ref 0 in
     fun () ->
       let n = !invalid_escapes in
       if n > !seen then begin
         let fresh = n - !seen in
         seen := n;
         Some
           (Printf.sprintf "%d malformed frame(s) escaped an output port"
              fresh)
       end
       else None);
  Fault.Invariant.register invariants "input-accounting" (fun () ->
      let v = Sim.Stats.Counter.value in
      let arrived = v istats.Input_loop.pkts_in in
      let settled =
        v istats.Input_loop.enq_ok
        + v istats.Input_loop.enq_drop
        + v istats.Input_loop.drop_by_process
      in
      if settled > arrived then
        Some (Printf.sprintf "settled %d packets but only %d arrived" settled
                arrived)
      else if arrived - settled > config.n_input_contexts then
        Some
          (Printf.sprintf
             "%d packets in flight with only %d input contexts"
             (arrived - settled) config.n_input_contexts)
      else None);
  Fault.Invariant.register invariants "forwarding-progress"
    (let last_in = ref 0 and last_settled = ref 0 in
     fun () ->
       let v = Sim.Stats.Counter.value in
       let arrived = v istats.Input_loop.pkts_in in
       let settled =
         v istats.Input_loop.enq_ok
         + v istats.Input_loop.enq_drop
         + v istats.Input_loop.drop_by_process
       in
       let stalled =
         arrived - !last_in >= 200 && settled = !last_settled
       in
       last_in := arrived;
       let r =
         if stalled then
           Some
             (Printf.sprintf
                "input advanced to %d packets but none settled since the \
                 last barrier (%d)"
                arrived settled)
         else None
       in
       last_settled := settled;
       r);
  (match injector with
  | None -> ()
  | Some inj ->
      Fault.Invariant.register invariants "vrp-budget" (fun () ->
          let injected = Fault.Injector.count inj Vrp_overrun in
          if !vrp_detected <> injected then
            Some
              (Printf.sprintf
                 "admission control caught %d of %d injected budget \
                  overruns"
                 !vrp_detected injected)
          else None));
  Array.iteri
    (fun i me ->
      Ixp.Microengine.register_telemetry
        (Telemetry.Registry.scope telemetry "me"
           ~labels:[ ("id", string_of_int i) ])
        me)
    chip.Ixp.Chip.mes;
  Array.iter
    (fun q ->
      Squeue.register_telemetry
        (Telemetry.Registry.scope telemetry "queue"
           ~labels:[ ("name", Squeue.name q) ])
        q)
    out_queues;
  Array.iteri
    (fun i c ->
      Telemetry.Scope.register_counter
        (Telemetry.Registry.scope telemetry "port"
           ~labels:[ ("id", string_of_int i) ])
        ~name:"delivered" c)
    delivered;
  let input_scope = Telemetry.Registry.scope telemetry "input" in
  Input_loop.register_stats input_scope istats;
  let output_scope = Telemetry.Registry.scope telemetry "output" in
  Output_loop.register_stats output_scope ostats;
  Telemetry.Scope.register_histogram output_scope ~name:"latency_ps" latency;
  Strongarm.register_telemetry
    (Telemetry.Registry.scope telemetry "strongarm")
    sa;
  Pentium.register_telemetry
    (Telemetry.Registry.scope telemetry "pentium")
    pe;
  (* Scheduler-efficiency gauges: where this router's engine spends its
     event budget.  [events_scheduled + elided_waits] approximates the
     logical event count; [wheel_far_hits] counts pushes that overflowed
     the timing wheel's horizon into the heap tier. *)
  let sim_scope = Telemetry.Registry.scope telemetry "sim" in
  Telemetry.Scope.gauge_int sim_scope "events_scheduled" (fun () ->
      Sim.Engine.events_scheduled engine);
  Telemetry.Scope.gauge_int sim_scope "elided_waits" (fun () ->
      Sim.Engine.elided_waits engine);
  Telemetry.Scope.gauge_int sim_scope "wheel_far_hits" (fun () ->
      Sim.Engine.far_hits engine);
  (* Clock reads and waits that found this engine through the
     domain-local key rather than a held handle: the data path holds
     its engine, so this grows with control-plane and harness calls,
     not with forwarded packets. *)
  Telemetry.Scope.gauge_int sim_scope "ambient_lookups" (fun () ->
      Sim.Engine.ambient_lookups engine);
  (* Batch telemetry: [batched_activations] counts context activations
     that processed at least one frame inside a batch span,
     [batch_frames_total] the frames they covered (their ratio is
     frames/activation), and [absorbed_waits] the timer waits coalesced
     *inside* spans — disjoint from [elided_waits], which now counts only
     waits elided outside any span.  [events_scheduled + elided_waits +
     absorbed_waits] approximates the logical event count. *)
  Telemetry.Scope.gauge_int sim_scope "batched_activations" (fun () ->
      Sim.Engine.batched_activations engine);
  Telemetry.Scope.gauge_int sim_scope "batch_frames_total" (fun () ->
      Sim.Engine.batch_frames_total engine);
  Telemetry.Scope.gauge_int sim_scope "absorbed_waits" (fun () ->
      Sim.Engine.absorbed_waits engine);
  (* Allocation gauges: this domain's GC counters rebased at router
     creation.  Divide by output.pkts_out for words per forwarded packet
     (both gauges land in the same `router_cli run --metrics` snapshot,
     which passes [~alloc_gauges:true]); the steady-state budget
     itself is asserted by the `alloc` bench experiment and test_alloc,
     which rebase after a warm-up window.  Off by default: GC counters
     are host facts, not simulation facts — they vary with pool warm-up
     and domain placement, and would break the bit-identical snapshot
     digests the cluster replay/domain-equivalence gates rely on. *)
  if alloc_gauges then begin
    let gc = Sim.Gc_stats.create () in
    Telemetry.Scope.gauge_int sim_scope "gc_minor_words" (fun () ->
        int_of_float (Sim.Gc_stats.minor_words gc));
    Telemetry.Scope.gauge_int sim_scope "gc_promoted_words" (fun () ->
        int_of_float (Sim.Gc_stats.promoted_words gc));
    Telemetry.Scope.gauge_int sim_scope "gc_major_words" (fun () ->
        int_of_float (Sim.Gc_stats.major_words gc));
    Telemetry.Scope.gauge_int sim_scope "gc_minor_collections" (fun () ->
        Sim.Gc_stats.minor_collections gc);
    Telemetry.Scope.gauge_int sim_scope "gc_major_collections" (fun () ->
        Sim.Gc_stats.major_collections gc)
  end;
  Telemetry.Scope.dynamic sim_scope "delivery_digest" (fun () ->
      match !delivery_digests with
      | None -> Telemetry.Json.Null
      | Some d ->
          Telemetry.Json.String
            (Digest.to_hex (Digest.string (String.concat "|" (Array.to_list d)))));
  {
    config;
    engine;
    chip;
    routes;
    nexthops = Array.init n_all make_nexthop;
    classifier;
    iface;
    sa;
    pe;
    out_queues;
    istats;
    ostats;
    delivered;
    latency;
    telemetry;
    input_scope;
    output_scope;
    injector;
    invariants;
    invalid_escapes;
    vrp_detected;
    delivery_digests;
    digest_scratch;
    frame_pool = None;
    port_targets =
      Array.init n_all (fun p ->
          Input_loop.To_queue { qid = p; out_port = p; fid = -1 });
    sa_targets =
      Array.init (n_all + 1) (fun i ->
          Input_loop.To_queue { qid = n_all; out_port = i - 1; fid = -1 });
    sa_ttl_target =
      Input_loop.To_queue { qid = n_all; out_port = 0; fid = -1 };
  }

(* Attach a frame pool before {!start}: dropped and released frames flow
   back to it, and its conservation becomes a checked invariant. *)
let set_frame_pool t pool =
  t.frame_pool <- Some pool;
  Ixp.Buffer_pool.set_release t.chip.Ixp.Chip.buffers (fun f ->
      Packet.Frame_pool.give pool f);
  Fault.Invariant.register t.invariants "frame-pool-conservation" (fun () ->
      Packet.Frame_pool.check pool)

let qid_sa_local t = total_ports t.config

let qid_sa_pe t h =
  total_ports t.config + 1 + (abs h mod Array.length t.sa.Strongarm.pe_qs)

let nexthop t port =
  if port >= 0 && port < Array.length t.nexthops then t.nexthops.(port)
  else make_nexthop port

let add_route t prefix ~port = Iproute.Table.add t.routes prefix (nexthop t port)

(* Finish a routed packet: the minimal IP tail — TTL decrement with
   incremental checksum (charged per Table 5's IP row), MAC rewrite, out
   the routed port. *)
let finish_ip t ctx frame nh =
  Chip_ctx.exec ctx 32;
  Chip_ctx.sram_read ctx ~bytes:24;
  if not (Packet.Ipv4.decrement_ttl frame) then
    (* TTL expired: the slow path owns ICMP generation. *)
    t.sa_ttl_target
  else begin
    Packet.Ethernet.set_dst frame nh.Iproute.Table.gateway_mac;
    Packet.Ethernet.set_src frame
      (Packet.Ethernet.mac_of_port nh.Iproute.Table.out_port);
    let p = nh.Iproute.Table.out_port in
    let n_all = total_ports t.config in
    if p >= 0 && p < n_all then t.port_targets.(p)
    else Input_loop.To_queue { qid = p mod n_all; out_port = p; fid = -1 }
  end

(* Divert to the StrongARM with no installed forwarder (fid = -1): the
   preallocated verdict when the route's port is in range. *)
let divert_sa_fast t routed_out =
  if routed_out >= -1 && routed_out < total_ports t.config then
    t.sa_targets.(routed_out + 1)
  else
    Input_loop.To_queue { qid = qid_sa_local t; out_port = routed_out; fid = -1 }

(* [route] uses {!Iproute.Table.no_route} as its none sentinel; the
   descriptor carries -1 for it. *)
let routed_out route =
  if route == Iproute.Table.no_route then -1
  else route.Iproute.Table.out_port

(* Diverts that name an installed forwarder's [fid]: rare paths, so
   they build their verdict. *)
let divert_sa t route fid =
  Input_loop.To_queue { qid = qid_sa_local t; out_port = routed_out route; fid }

let divert_pe t frame route fid =
  let h =
    match Packet.Flow.of_frame frame with
    | Some k -> Hashtbl.hash k
    | None -> 0
  in
  Input_loop.To_queue { qid = qid_sa_pe t h; out_port = routed_out route; fid }

(* The forwarder chain: the per-flow entry, then the general entries in
   order, then the built-in minimal IP tail.  Plain mutual recursion
   over the entry list, and every verdict for a fixed port or a plain
   StrongARM divert is a preallocated target, so a packet whose
   forwarders all run on the MicroEngines allocates nothing here. *)
let rec run_chain t ctx frame ~in_port ~route ~route_cache_hit = function
  | [] ->
      (* Packets with options or a route-cache miss (which covers no
         route: the cache holds only real next hops) are exceptional: the
         StrongARM services them (section 3.2), warming the cache on the
         way. *)
      if Packet.Ipv4.has_options frame || not route_cache_hit then
        divert_sa_fast t (routed_out route)
      else finish_ip t ctx frame route
  | e :: rest -> run_entry t ctx frame ~in_port ~route ~route_cache_hit e rest

and run_entry t ctx frame ~in_port ~route ~route_cache_hit
    (e : Classifier.entry) rest =
  match e.Classifier.where with
  | Desc.Strongarm -> divert_sa t route e.Classifier.fid
  | Desc.Pentium -> divert_pe t frame route e.Classifier.fid
  | Desc.Microengine -> (
      Vrp.execute_generic t.config.cm ctx e.Classifier.fwdr.Forwarder.code;
      match
        e.Classifier.fwdr.Forwarder.action ~state:e.Classifier.state frame
          ~in_port
      with
      | Forwarder.Continue | Forwarder.Divert Desc.Microengine ->
          run_chain t ctx frame ~in_port ~route ~route_cache_hit rest
      | Forwarder.Drop -> Input_loop.Drop_it
      | Forwarder.Forward p ->
          (* A verdict naming a non-existent port is forwarder
             misbehavior (OCaml's [mod] is negative for negative [p], so
             indexing with it would crash the context); contain it as a
             drop. *)
          if p >= 0 && p < total_ports t.config then t.port_targets.(p)
          else Input_loop.Drop_it
      | Forwarder.Forward_routed ->
          if route == Iproute.Table.no_route then divert_sa_fast t (-1)
          else finish_ip t ctx frame route
      | Forwarder.Divert Desc.Strongarm -> divert_sa t route e.Classifier.fid
      | Forwarder.Divert Desc.Pentium ->
          divert_pe t frame route e.Classifier.fid)

let default_process t ctx frame ~in_port =
  let c = t.classifier in
  if not (Classifier.classify c ctx frame) then Input_loop.Drop_it
  else begin
    (* Copy the classifier's scratch verdict out before any further
       hardware charge: a charge can suspend (classic mode) and let a
       sibling context re-classify over the same scratch.  The routing
       decision travels up the hierarchy in the descriptor (the paper's
       8-byte internal routing header), so higher levels need not
       re-classify. *)
    let general = Classifier.scratch_general c in
    let route = Classifier.scratch_route c in
    let route_cache_hit = Classifier.scratch_route_cache_hit c in
    match Classifier.scratch_per_flow c with
    | None -> run_chain t ctx frame ~in_port ~route ~route_cache_hit general
    | Some e ->
        run_entry t ctx frame ~in_port ~route ~route_cache_hit e general
  end

let start ?process t =
  let cfg = t.config in
  let cm = cfg.cm in
  let process =
    match process with Some p -> p t | None -> default_process t
  in
  let process =
    match t.injector with
    | None -> process
    | Some inj ->
        fun ctx frame ~in_port ->
          if Fault.Injector.fires inj Vrp_overrun then begin
            (* A forwarder blowing its cycle and SRAM budget.  Admission
               control must flag the same code it is about to run
               (detection counted before the charged execution, so a
               barrier landing mid-execution sees consistent counts). *)
            let code = [ Vrp.Instr 300; Vrp.Sram_read 128 ] in
            (match
               Vrp.check Vrp.prototype_budget (Vrp.static_cost code)
                 ~state_bytes:0 ~slots:(Vrp.istore_slots code)
             with
            | Error _ -> incr t.vrp_detected
            | Ok () -> ());
            Vrp.execute ctx code
          end;
          if Fault.Injector.fires inj Rogue_forwarder then
            (* A misbehaving forwarder's garbage verdict: a queue id and
               port drawn from well outside the valid range, possibly
               negative.  The static queue discipline must contain it. *)
            let p = Fault.Injector.draw_int inj 64 - 16 in
            Input_loop.To_queue { qid = p; out_port = p; fid = -1 }
          else process ctx frame ~in_port
  in
  (* Input contexts: two per port, maximally separated in the rotation
     (context i serves port i mod n_ports). *)
  let input_ring =
    Sim.Token_ring.create ~name:"input-token"
      ~pass_ps:
        (Sim.Engine.Clock.ps_of_cycles t.chip.Ixp.Chip.me_clock
           cfg.hw.Ixp.Config.token_pass_cycles)
      ~members:cfg.n_input_contexts t.engine
  in
  let n_in_me = mes_used ~n:cfg.n_input_contexts in
  let n_all = total_ports cfg in
  let n_pe_qs = Array.length t.sa.Strongarm.pe_qs in
  let queue_of ~ctx_id:_ qid =
    if qid >= 0 && qid < n_all then t.out_queues.(qid)
    else if qid > n_all && qid <= n_all + n_pe_qs then
      t.sa.Strongarm.pe_qs.(qid - n_all - 1)
    else
      (* [qid = n_all] plus anything out of range: a garbage queue id
         must not crash the context, and the slow path validates. *)
      t.sa.Strongarm.local_q
  in
  let notify qid = if qid < 0 || qid >= n_all then Strongarm.notify t.sa in
  let il =
    {
      Input_loop.cm;
      enq = Input_loop.enqueue_protected cm;
      process;
      process_rest_mp = (fun _ _ -> ());
      queue_of;
      notify = Some notify;
      idle_backoff_cycles = 128;
      scope = Some t.input_scope;
      recycle =
        (match t.frame_pool with
        | None -> None
        | Some p -> Some (fun f -> Packet.Frame_pool.give p f));
    }
  in
  (* Contexts per port in proportion to line rate (every port gets at
     least one when contexts suffice): the "budget RI capacity to service
     packets arriving on the internal link" of section 6.  Quotas are
     drained round-robin so the contexts sharing a port sit as far apart
     as possible in the token rotation (section 3.2.2). *)
  let port_mbps_of i = Ixp.Mac_port.mbps t.chip.Ixp.Chip.ports.(i) in
  let quotas =
    let total_mbps = ref 0. in
    for i = 0 to n_all - 1 do
      total_mbps := !total_mbps +. port_mbps_of i
    done;
    let q = Array.make n_all 1 in
    let assigned = ref (min n_all cfg.n_input_contexts) in
    (* Hand out the remaining contexts by largest fractional share. *)
    while !assigned < cfg.n_input_contexts do
      let best = ref 0 and best_gap = ref neg_infinity in
      for i = 0 to n_all - 1 do
        let want =
          float_of_int cfg.n_input_contexts *. port_mbps_of i /. !total_mbps
        in
        let gap = want -. float_of_int q.(i) in
        if gap > !best_gap then begin
          best := i;
          best_gap := gap
        end
      done;
      q.(!best) <- q.(!best) + 1;
      incr assigned
    done;
    q
  in
  let input_ports =
    (* Round-robin through ports, one context per pass while quota lasts. *)
    let remaining = Array.copy quotas in
    let order = ref [] in
    let left = ref (Array.fold_left ( + ) 0 remaining) in
    while !left > 0 do
      for i = 0 to n_all - 1 do
        if remaining.(i) > 0 then begin
          remaining.(i) <- remaining.(i) - 1;
          decr left;
          order := i :: !order
        end
      done
    done;
    Array.of_list (List.rev !order)
  in
  for i = 0 to cfg.n_input_contexts - 1 do
    let ctx_id = ((i mod n_in_me) * 4) + (i / n_in_me) in
    let port = t.chip.Ixp.Chip.ports.(input_ports.(i mod Array.length input_ports)) in
    Input_loop.spawn_context ~burst_mps:cfg.batch_mps il t.chip
      ~ring:input_ring ~slot:i ~ctx_id ~source:(Input_loop.Port port)
      ~stats:t.istats
  done;
  (* Output contexts: one per port when they suffice; otherwise a context
     services several ports' queues in priority order (the RI capacity the
     internal link consumes, section 6). *)
  let n_out = min cfg.n_output_contexts n_all in
  let output_ring =
    Sim.Token_ring.create ~name:"output-token"
      ~pass_ps:
        (Sim.Engine.Clock.ps_of_cycles t.chip.Ixp.Chip.me_clock
           cfg.hw.Ixp.Config.token_pass_cycles)
      ~members:n_out t.engine
  in
  (* Each transmit port's [Some] is built once: [port_for] runs per MP,
     and a fresh option per call was steady minor-heap traffic. *)
  let port_opts =
    Array.init n_all (fun i -> Some t.chip.Ixp.Chip.ports.(i))
  in
  (* Ports are packed onto output contexts greedily by line rate, so a
     fast uplink gets a context to itself while slow ports share. *)
  let out_assignment = Array.make n_out [] in
  (let load = Array.make n_out 0. in
   let ports_by_speed =
     List.sort
       (fun a b -> compare (port_mbps_of b) (port_mbps_of a))
       (List.init n_all Fun.id)
   in
   List.iter
     (fun p ->
       let best = ref 0 in
       for j = 1 to n_out - 1 do
         if load.(j) < load.(!best) then best := j
       done;
       load.(!best) <- load.(!best) +. port_mbps_of p;
       (* Reversed accumulation; re-reversed once at the use site. *)
       out_assignment.(!best) <- p :: out_assignment.(!best))
     ports_by_speed);
  for j = 0 to n_out - 1 do
    let n_out_me = mes_used ~n:n_out in
    let ctx_id = ((n_in_me + (j mod n_out_me)) * 4) + (j / n_out_me) in
    let my_ports = List.rev out_assignment.(j) in
    match my_ports with
    | [] -> ()
    | _ :: extra ->
        (* A context with several ports transmits each packet on its
           descriptor's port; queues are drained in priority order. *)
        let queues =
          Array.of_list (List.map (fun p -> t.out_queues.(p)) my_ports)
        in
        let multi = extra <> [] in
        let ol =
          {
            Output_loop.cm;
            discipline =
              (if multi then Output_loop.O3_multi else Output_loop.O1_batch);
            queues;
            port_for = (fun desc -> port_opts.(desc.Desc.out_port mod n_all));
            on_tx =
              Some
                (fun desc _ ->
                  Sim.Stats.Histogram.observe_i t.latency
                    (Sim.Engine.clock_i t.engine - desc.Desc.arrival));
            idle_backoff_cycles = 128;
            scope = Some t.output_scope;
          }
        in
        Output_loop.spawn_context ~burst_mps:cfg.batch_mps ol t.chip
          ~ring:output_ring ~slot:j ~ctx_id ~stats:t.ostats
  done;
  Strongarm.spawn t.sa t.chip;
  Pentium.spawn t.pe t.chip

let inject t ~port frame = Ixp.Mac_port.offer t.chip.Ixp.Chip.ports.(port) frame

let connect t ~port deliver =
  let counter = t.delivered.(port) in
  let audit =
    match t.injector with
    | None -> fun _ -> ()
    | Some _ ->
        fun f -> if not (frame_escapable f) then incr t.invalid_escapes
  in
  let engine = t.engine in
  Ixp.Mac_port.set_sink t.chip.Ixp.Chip.ports.(port) (fun f ->
      audit f;
      (match !(t.delivery_digests) with
      | None -> ()
      | Some d ->
          d.(port) <-
            digest_fold t.digest_scratch d.(port)
              ~time:(Sim.Engine.clock_i engine) f);
      Sim.Stats.Counter.incr counter;
      deliver f)

(* The delivery-schedule digest: the relaxed equivalence gate.  PR 3's
   gate compared full event traces, which pinned the simulator to
   event-per-wait granularity; this PR's gate compares only what the
   outside world can see — the per-port sequence of (time, frame bytes)
   at delivery.  Executions that coalesce activations differently but
   transmit the same frames at the same times are equivalent. *)
let enable_delivery_digest t =
  match !(t.delivery_digests) with
  | Some _ -> ()
  | None ->
      t.delivery_digests :=
        Some (Array.make (total_ports t.config) (Digest.string ""))

let port_delivery_digests t =
  match !(t.delivery_digests) with
  | None -> invalid_arg "Router.port_delivery_digests: digest not enabled"
  | Some d -> Array.map Digest.to_hex d

let check_invariants t = Fault.Invariant.check t.invariants

let run_for t ~us =
  let target =
    Int64.add (Sim.Engine.time t.engine) (Sim.Engine.of_seconds (us *. 1e-6))
  in
  Sim.Engine.run t.engine ~until:target;
  (* Every pause is a barrier: quiescent enough for the cross-component
     accounting invariants to be meaningful. *)
  ignore (check_invariants t : int)

let telemetry_snapshot t = Telemetry.Registry.snapshot t.telemetry

let delivered_total t =
  Array.fold_left (fun acc c -> acc + Sim.Stats.Counter.value c) 0 t.delivered

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>router after %.3f ms:@,"
    (Sim.Engine.seconds (Sim.Engine.time t.engine) *. 1e3);
  Format.fprintf ppf "  in: %d pkts (%d enqueued, %d dropped)@,"
    (Sim.Stats.Counter.value t.istats.Input_loop.pkts_in)
    (Sim.Stats.Counter.value t.istats.Input_loop.enq_ok)
    (Sim.Stats.Counter.value t.istats.Input_loop.enq_drop);
  Format.fprintf ppf "  out: %d pkts transmitted@,"
    (Sim.Stats.Counter.value t.ostats.Output_loop.pkts_out);
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "  port %d: delivered %d (queue depth %d)@," i
        (Sim.Stats.Counter.value c)
        (Squeue.length t.out_queues.(i)))
    t.delivered;
  Format.fprintf ppf "  sa: local=%d bridged=%d returned=%d dropped=%d@,"
    (Sim.Stats.Counter.value t.sa.Strongarm.stats.Strongarm.local_done)
    (Sim.Stats.Counter.value t.sa.Strongarm.stats.Strongarm.bridged)
    (Sim.Stats.Counter.value t.sa.Strongarm.stats.Strongarm.returned)
    (Sim.Stats.Counter.value t.sa.Strongarm.stats.Strongarm.dropped);
  Format.fprintf ppf "  pe: processed=%d dropped=%d@,"
    (Sim.Stats.Counter.value (Pentium.stats t.pe).Pentium.processed)
    (Sim.Stats.Counter.value (Pentium.stats t.pe).Pentium.dropped);
  (match t.injector with
  | None -> ()
  | Some inj ->
      Format.fprintf ppf "  faults: %a@," Fault.Injector.pp_counts inj;
      Format.fprintf ppf "  %a@," Fault.Invariant.pp_report t.invariants);
  Format.fprintf ppf "  %a@]" Sim.Stats.Histogram.pp t.latency
