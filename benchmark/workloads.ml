(* The four workloads, each built through the library's public API only.

   Preparing a workload has three stages, so that only the program's own
   work is timed as set-up:

   - [prepare ~seed size plan] generates the inputs shared by every
     set-up (route set, rule set, churn streams) outside any timer;
   - applying the result to [()] makes the per-set-up mutable state the
     benchmark keeps beside the router, still untimed;
   - applying that to [~traced probe] is the timed set-up: create the
     router, install routes and rules, start it, spawn the sources.

   The set-up is timed several times and the median reported; only the
   last rig runs.

   Sources are open-loop in simulated time: they offer on a fixed
   schedule whatever the router's state, so a refused offer is loss and
   generator lateness is zero by construction.  The FIB and the
   classifier rule set come from fixed seeds — they are the router's
   configuration — and the traffic and churn streams from the run's seed,
   so no seed can turn a workload into a drop benchmark by drawing a
   catch-all drop rule. *)

type size = Full | Tiny

(* The simulated run, in microseconds. *)
type plan = { warmup_us : float; window_us : float; windows : int }

(* The drain phase ends once a slice delivers nothing, or after this. *)
let drain_us_max = 50_000.

type rig = {
  routers : Router.t array;  (** the router, or the cluster's members *)
  cluster : Cluster.t option;
  pools : Packet.Frame_pool.t array;
  mf : Forwarders.Classifier.t option;  (** the installed rule set *)
  rip : Control.Rip.t option;
  slice_us : float;
  advance : float -> unit;  (** run the simulation this many us *)
  now_ps : unit -> int;
  domains : int;
}

type builder = traced:bool -> Probe.t -> rig

type spec = {
  name : string;
  warmup_us : float;
  sim_us_per_host_s : float;
      (** simulated us per host second on the reference host: sizes the
          windows so that a run measures about [--seconds] of host time *)
  tiny_window_us : float;
  setups : int;  (** set-up repetitions in an untraced run *)
  offered_pps : float;  (** aggregate offered rate, sizing the stores *)
  lanes : int;  (** routers delivering (cluster members) *)
  floor : float;  (** minimum delivered / (offered - policy drops) *)
  prepare : seed:int -> size -> plan -> unit -> builder;
}

let n_ports = 8
let fib_seed = 1_000_003L
let rule_seed = 2L
let churn_seed = 1_000_037L
let huge_gap = Int64.of_int 1_000_000_000_000_000
let line_rate frame_len = Workload.Source.line_rate_pps ~mbps:100. ~frame_len
let gap_ps pps = Sim.Engine.of_seconds (1. /. pps)

(* Destination subnet 10.g.0.0/16 is routed to global port [g] in line64
   and cluster4 (the address scheme of [Workload.Mix]). *)
let subnet_port ~seq:_ ~port f = (Packet.Ipv4.get_dst_i f lsr 16) land 0xFF = port

let spawn_source (probe : Probe.t) ~lane engine ~g ~pool ~next_gap ~gen
    ~inject =
  let src = probe.sources.(g) in
  let lane = probe.lanes.(lane) in
  ignore
    (Workload.Source.spawn_with_gap engine
       ~name:(Printf.sprintf "gen%d" g)
       ~next_gap:(fun () -> if probe.stopped then huge_gap else next_gap ())
       ~gen:(Probe.wrap_gen probe lane src gen)
       ~offer:(Probe.wrap_offer probe lane src ~pool inject)
       ()
      : Workload.Source.stats)

let connect_ports (probe : Probe.t) ~member r ~expect =
  let lane = probe.lanes.(member) in
  Router.enable_delivery_digest r;
  for p = 0 to n_ports - 1 do
    let port = (member * n_ports) + p in
    Router.connect r ~port:p (fun f -> Probe.deliver probe lane ~expect ~port f)
  done

let start_router ?mf ?rip ~traced (probe : Probe.t) r pool =
  Router.start
    ?process:
      (if traced then Some (Probe.wrap_process probe.lanes.(0)) else None)
    r;
  {
    routers = [| r |];
    cluster = None;
    pools = [| pool |];
    mf;
    rip;
    slice_us = 1_000.;
    advance = (fun us -> Router.run_for r ~us);
    now_ps = (fun () -> Int64.to_int (Sim.Engine.time r.Router.engine));
    domains = 1;
  }

let add_subnet_routes add =
  for p = 0 to n_ports - 1 do
    add (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p)) p
  done

let install_classifier r rules =
  let cls = Forwarders.Classifier.create () in
  List.iter (Forwarders.Classifier.add cls) rules;
  (match
     Router.Iface.install r.Router.iface ~key:Packet.Flow.All
       ~fwdr:(Forwarders.Classifier.forwarder ~cm:r.Router.config.Router.cm cls)
       ~where:Router.Iface.ME ()
   with
  | Ok _ -> ()
  | Error es -> failwith ("classifier install: " ^ String.concat "; " es));
  cls

let n_rules = function Full -> 10_000 | Tiny -> 1_000

(* [n] rules to install plus [spare] more for the churn fiber to add,
   all distinct (one generator call deduplicates). *)
let rule_set ?(spare = 0) size =
  let all =
    Forwarders.Classifier.Gen.rules ~rng:(Sim.Rng.create rule_seed)
      ~n:(n_rules size + spare) ~n_ports ~forward_share:0. ()
  in
  (List.filteri (fun i _ -> i < n_rules size) all,
   Array.of_list (List.filteri (fun i _ -> i >= n_rules size) all))

let flows ~pool ~rng ~pps ~frame_len =
  Workload.Flows.create ~pool ~rng
    {
      Workload.Flows.default with
      pps;
      n_hosts = 1_000_000;
      max_flow_pkts = 1_000;
      n_subnets = n_ports;
      frame_len;
    }

(* {1 line64: the paper's section 3.5.1 run} *)

let line64_pps = 0.95 *. line_rate 64

let line64_prepare ~seed _size _plan () ~traced probe =
  let config =
    { Router.default_config with circular_buffers = true; queue_capacity = 512 }
  in
  let r = Router.create ~config () in
  let pool = Packet.Frame_pool.create ~max_frames:16_384 ~frame_bytes:80 () in
  Router.set_frame_pool r pool;
  add_subnet_routes (fun prefix port -> Router.add_route r prefix ~port);
  connect_ports probe ~member:0 r ~expect:subnet_port;
  let rig = start_router ~traced probe r pool in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let gap = gap_ps line64_pps in
  for g = 0 to n_ports - 1 do
    let rng = Sim.Rng.split rng in
    spawn_source probe ~lane:0 r.Router.engine ~g ~pool
      ~next_gap:(fun () -> gap)
      ~gen:(Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:n_ports ~frame_len:64 ())
      ~inject:(fun f -> Router.inject r ~port:g f)
  done;
  rig

let line64 =
  {
    name = "line64";
    warmup_us = 20_000.;
    sim_us_per_host_s = 220_000.;
    tiny_window_us = 2_000.;
    setups = 21;
    offered_pps = float_of_int n_ports *. line64_pps;
    lanes = 1;
    floor = 0.99;
    prepare = line64_prepare;
  }

(* {1 internet: flow traffic over a BGP-sized FIB and 10k rules} *)

(* IMIX by input port: five 64 B ports, two 576 B, one 1500 B. *)
let internet_frame_len p = if p <= 4 then 64 else if p <= 6 then 576 else 1500

(* Mean offered load as a share of each port's line rate; the MMPP bursts
   run 4x hotter than the calm periods. *)
let internet_load = 0.5

let internet_prepare ~seed size _plan =
  let routes =
    Iproute.Gen.bgp_table ~rng:(Sim.Rng.create fib_seed)
      ~n:(match size with Full -> 1_000_000 | Tiny -> 10_000)
      ~n_ports
  in
  let rules, _ = rule_set size in
  fun () ~traced probe ->
    let config =
      { Router.default_config with route_engine = Iproute.Table.Poptrie }
    in
    let r = Router.create ~config () in
    let pool =
      Packet.Frame_pool.create ~max_frames:16_384 ~frame_bytes:1536 ()
    in
    Router.set_frame_pool r pool;
    Array.iter (fun (prefix, port) -> Router.add_route r prefix ~port) routes;
    add_subnet_routes (fun prefix port -> Router.add_route r prefix ~port);
    let mf = install_classifier r rules in
    (* One delivery in 16 is checked against a full lookup in the run's
       own (static) table; checking all would add a lookup per packet to
       the measured host time. *)
    let expect ~seq ~port f =
      seq land 15 <> 0
      ||
      match Iproute.Table.lookup r.Router.routes (Packet.Ipv4.get_dst f) with
      | Some nh -> nh.Iproute.Table.out_port = port
      | None -> false
    in
    connect_ports probe ~member:0 r ~expect;
    let rig = start_router ~mf ~traced probe r pool in
    let rng = Sim.Rng.create (Int64.of_int seed) in
    for g = 0 to n_ports - 1 do
      let frame_len = internet_frame_len g in
      let fl =
        flows ~pool ~rng:(Sim.Rng.split rng)
          ~pps:(internet_load *. line_rate frame_len)
          ~frame_len
      in
      spawn_source probe ~lane:0 r.Router.engine ~g ~pool
        ~next_gap:(fun () -> Workload.Flows.next_gap fl)
        ~gen:(Workload.Flows.gen fl)
        ~inject:(fun f -> Router.inject r ~port:g f)
    done;
    rig

let internet =
  {
    name = "internet";
    warmup_us = 20_000.;
    sim_us_per_host_s = 400_000.;
    tiny_window_us = 2_000.;
    setups = 3;
    offered_pps =
      internet_load
      *. Array.fold_left ( +. ) 0.
           (Array.init n_ports (fun p -> line_rate (internet_frame_len p)));
    lanes = 1;
    floor = 0.5;
    prepare = internet_prepare;
  }

(* {1 churn: route and rule writes beside the lookups} *)

(* At 60% of line rate the per-window p95 climbed through the run for
   some seeds (from 38 to 137 us over 1.1 s for seed 301): a growing
   backlog, so the latency read the run's length and not the router.  At
   50% it stays flat. *)
let churn_load = 0.5
let rip_updates_per_s = 5_000.
let rule_ops_per_s = 1_000.
let options_share = 0.1

let churn_prepare ~seed size (plan : plan) =
  let base =
    Iproute.Gen.bgp_table ~rng:(Sim.Rng.create fib_seed)
      ~n:(match size with Full -> 100_000 | Tiny -> 10_000)
      ~n_ports
  in
  let rules, spare = rule_set ~spare:1_000 size in
  let run_s =
    (plan.warmup_us
    +. (float_of_int plan.windows *. plan.window_us)
    +. drain_us_max)
    *. 1e-6
  in
  let traffic_seed = Int64.of_int seed in
  let rng = Sim.Rng.create churn_seed in
  let ops =
    Iproute.Gen.churn ~rng:(Sim.Rng.split rng) ~base ~n_ports
      ~steps:(1 + int_of_float (run_s *. rip_updates_per_s))
  in
  let rule_rng_seed = Sim.Rng.next rng in
  fun () ->
    (* The benchmark's shadow of which port last announced each prefix,
       so a withdrawal is sent by the neighbor that owns the route (RIP
       accepts a retraction only from the current next hop). *)
    let via = Hashtbl.create (2 * Array.length base) in
    Array.iter (fun (prefix, port) -> Hashtbl.replace via prefix port) base;
    let installed = Array.of_list rules and spare = Array.copy spare in
    let traffic_rng = Sim.Rng.create traffic_seed in
    fun ~traced probe ->
      let config =
        {
          Router.default_config with
          route_engine = Iproute.Table.Poptrie;
          selective_invalidation = true;
        }
      in
      let r = Router.create ~config () in
      let pool =
        Packet.Frame_pool.create ~max_frames:16_384 ~frame_bytes:96 ()
      in
      Router.set_frame_pool r pool;
      let rip = Control.Rip.create r in
      let announce prefix port =
        Control.Rip.apply rip ~via_port:port { Control.Rip.prefix; metric = 0 }
      in
      Array.iter (fun (prefix, port) -> announce prefix port) base;
      add_subnet_routes announce;
      let mf = install_classifier r rules in
      (* The table changes under the traffic, so the delivered port is
         not checked against a lookup here; the digests cover it. *)
      connect_ports probe ~member:0 r ~expect:(fun ~seq:_ ~port:_ _ -> true);
      let rig = start_router ~mf ~rip ~traced probe r pool in
      let engine = r.Router.engine in
      let rip_gap = Int64.to_int (gap_ps rip_updates_per_s) in
      Sim.Engine.spawn engine "rip-churn" (fun () ->
          let apply via_port a =
            Probe.timed_write probe probe.rip_apply Probe.l_rip (fun () ->
                Control.Rip.apply rip ~via_port a)
          in
          Array.iter
            (fun op ->
              Sim.Engine.wait_i rip_gap;
              if not probe.stopped then
                match op with
                | Iproute.Gen.Announce (prefix, port) ->
                    (match Hashtbl.find_opt via prefix with
                    | Some p when p <> port -> ()
                    | _ -> Hashtbl.replace via prefix port);
                    apply port { Control.Rip.prefix; metric = 0 }
                | Iproute.Gen.Withdraw prefix ->
                    let port =
                      Option.value ~default:0 (Hashtbl.find_opt via prefix)
                    in
                    Hashtbl.remove via prefix;
                    apply port
                      { Control.Rip.prefix; metric = Control.Rip.infinity_metric })
            ops);
      let rule_gap = Int64.to_int (gap_ps rule_ops_per_s) in
      let rule_rng = Sim.Rng.create rule_rng_seed in
      Sim.Engine.spawn engine "rule-churn" (fun () ->
          (* Alternately retire a random installed rule and install a random
             spare one, swapping the two, so the set stays at n or n-1. *)
          let k = ref 0 in
          while not probe.stopped do
            Sim.Engine.wait_i rule_gap;
            let i = Sim.Rng.int rule_rng (Array.length installed) in
            let j = Sim.Rng.int rule_rng (Array.length spare) in
            let out = installed.(i) and inn = spare.(j) in
            if !k land 1 = 0 then
              Probe.timed_write probe probe.mf_update Probe.l_mf_update (fun () ->
                  ignore (Forwarders.Classifier.remove mf out : bool))
            else begin
              Probe.timed_write probe probe.mf_update Probe.l_mf_update (fun () ->
                  Forwarders.Classifier.add mf inn);
              installed.(i) <- inn;
              spare.(j) <- out
            end;
            incr k
          done);
      let per_port = churn_load *. line_rate 64 in
      for g = 0 to n_ports - 1 do
        let fl =
          flows ~pool ~rng:(Sim.Rng.split traffic_rng) ~pps:per_port ~frame_len:64
        in
        let opt_rng = Sim.Rng.split traffic_rng in
        (* Like [Workload.Mix.with_options_share], but the pooled original
           goes back to the pool instead of leaking from it. *)
        let gen i =
          let f = Workload.Flows.gen fl i in
          if Sim.Rng.float opt_rng 1.0 < options_share then begin
            let o = Packet.Build.with_ip_options f in
            Packet.Frame_pool.give pool f;
            o
          end
          else f
        in
        spawn_source probe ~lane:0 engine ~g ~pool
          ~next_gap:(fun () -> Workload.Flows.next_gap fl)
          ~gen
          ~inject:(fun f -> Router.inject r ~port:g f)
      done;
      rig

let churn =
  {
    name = "churn";
    warmup_us = 20_000.;
    sim_us_per_host_s = 130_000.;
    tiny_window_us = 2_000.;
    setups = 3;
    offered_pps = float_of_int n_ports *. churn_load *. line_rate 64;
    lanes = 1;
    floor = 0.5;
    prepare = churn_prepare;
  }

(* {1 cluster4: four members behind a queued fabric} *)

let members = 4
let cluster_pps = 0.95 *. line_rate 64

(* One domain: on the 2-vCPU reference host a second domain (spawned by
   every [run_for]) was no faster, 92k against 94k pkt/s over eight
   interleaved seeds, and its run-to-run spread was four times wider,
   0.19 against 0.05 of the median, beyond any bound the benchmark could
   hold.  The simulation is the same for any domain count. *)
let cluster4_prepare ~seed _size _plan () ~traced:_ (probe : Probe.t) =
  let fabric_queue =
    match Cluster.Fabric_queue.parse "taildrop:256" with
    | Ok q -> q
    | Error e -> failwith e
  in
  let c =
    Cluster.create ~members ~ports_per_member:n_ports ~domains:1 ~frame_pool:true
      ~fabric_queue ()
  in
  Array.iteri
    (fun m r -> connect_ports probe ~member:m r ~expect:subnet_port)
    c.Cluster.members;
  let n_global = members * n_ports in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let gap = gap_ps cluster_pps in
  for g = 0 to n_global - 1 do
    let m, _ = Cluster.member_of_global_port c g in
    let pool = Option.get (Cluster.frame_pool c m) in
    let rng = Sim.Rng.split rng in
    spawn_source probe ~lane:m (Cluster.engine_of_global_port c g) ~g ~pool
      ~next_gap:(fun () -> gap)
      ~gen:(Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:n_global ~frame_len:64 ())
      ~inject:(fun f -> Cluster.inject c ~global_port:g f)
  done;
  {
    routers = c.Cluster.members;
    cluster = Some c;
    pools = Array.init members (fun m -> Option.get (Cluster.frame_pool c m));
    mf = None;
    rip = None;
    slice_us = 100.;
    advance = (fun us -> Cluster.run_for c ~us);
    now_ps = (fun () -> Int64.to_int (Cluster.time c));
    domains = c.Cluster.domains;
  }

let cluster4 =
  {
    name = "cluster4";
    warmup_us = 4_000.;
    sim_us_per_host_s = 26_000.;
    tiny_window_us = 250.;
    setups = 21;
    offered_pps = float_of_int (members * n_ports) *. cluster_pps;
    lanes = members;
    floor = 0.5;
    prepare = cluster4_prepare;
  }

let all = [ line64; internet; churn; cluster4 ]
