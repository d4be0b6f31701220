(* Fault matrix: drive the full three-level router through the
   fault-injection scenario matrix and audit the router-wide invariants at
   every barrier.  Paper value for every row is 0 violations — the
   robustness claim is that injected faults cost packets, never
   consistency.  Any violating scenario prints its seed and a repro
   command, and [failures] makes the harness exit nonzero so CI gates on
   it. *)

let failures = ref 0

let seed = 42

(* Every site that fired in any scenario.  A site no scenario reaches is
   a fault key that parses but never touches a router. *)
let injected_sites = Hashtbl.create 16

let note_sites = function
  | None -> ()
  | Some inj ->
      List.iter
        (fun site ->
          if Fault.Injector.count inj site > 0 then
            Hashtbl.replace injected_sites site ())
        Fault.Injector.all_sites

(* A slice of every scenario's traffic belongs to this Pentium-bound flow:
   without it the host CPU blocks on an empty I2O queue and the pe_crash
   site never gets a chance to fire. *)
let pe_null =
  Router.Forwarder.make ~name:"pe-null" ~code:[] ~state_bytes:0 ~host_cycles:0
    (fun ~state:_ _ ~in_port:_ -> Router.Forwarder.Forward_routed)

let pe_flow =
  {
    Packet.Flow.src_addr = Packet.Ipv4.addr_of_string "10.250.0.1";
    src_port = 5000;
    dst_addr = Packet.Ipv4.addr_of_string "10.0.0.77";
    dst_port = 6000;
  }

let scenarios =
  [
    ("none", "baseline, no faults");
    ("mac_corrupt:0.02", "wire corruption, 1-4 bytes per hit frame");
    ("mac_truncate:0.02", "frames cut short on the wire");
    ("mac_garbage:0.02", "whole frames replaced by noise");
    ("mac_loss:0.02,mac_burst:4", "bursty frame loss");
    ("mem_delay:0.02,mem_delay_cycles:200", "stalled memory operations");
    ("mem_drop:0.01", "memory operations silently dropped");
    ("pool_fail:0.01", "buffer-pool allocation failures");
    ("vrp_overrun:0.01", "forwarders exceeding the VRP budget");
    ("rogue:0.01", "forwarders returning garbage verdicts");
    ("sa_crash:0.01,sa_restart_us:50", "StrongARM crash-and-restart");
    ("pe_crash:0.05,pe_restart_us:50", "Pentium crash-and-restart");
    ( "mac_corrupt:0.01,mac_loss:0.01,mem_delay:0.01,pool_fail:0.005,\
       vrp_overrun:0.005,rogue:0.005,sa_crash:0.002,pe_crash:0.02",
      "combined storm" );
  ]

type outcome = {
  injected : int;
  counts : (string * int) list;
  violations : Fault.Invariant.violation list;
  delivered : int;
  pkts_in : int;
  fault_json : Telemetry.Json.t;
}

let attempt spec =
  let scenario =
    match Fault.Scenario.parse spec with
    | Ok s -> Fault.Scenario.with_seed s (Int64.of_int seed)
    | Error msg -> failwith ("fault_matrix: bad spec " ^ spec ^ ": " ^ msg)
  in
  let config = { Router.default_config with Router.faults = scenario } in
  let r = Router.create ~config () in
  for p = 0 to config.Router.n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  (match
     Router.Iface.install r.Router.iface ~key:(Packet.Flow.Tuple pe_flow)
       ~fwdr:pe_null ~where:Router.Iface.PE ~expected_pps:20_000. ()
   with
  | Ok _ -> ()
  | Error es -> failwith ("fault_matrix: PE admission: " ^ String.concat ";" es));
  Router.start r;
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for p = 0 to config.Router.n_ports - 1 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~mbps:config.Router.port_mbps ~frame_len:64
         ~gen:
           (Workload.Mix.udp_uniform ~rng
              ~n_subnets:config.Router.n_ports ~frame_len:64 ())
         ~offer:(fun f -> Router.inject r ~port:p f)
         ())
  done;
  ignore
    (Workload.Source.spawn_constant r.Router.engine ~name:"pe-gen"
       ~pps:20_000.
       ~gen:(fun _ ->
         Packet.Build.tcp ~src:pe_flow.Packet.Flow.src_addr
           ~dst:pe_flow.Packet.Flow.dst_addr
           ~src_port:pe_flow.Packet.Flow.src_port
           ~dst_port:pe_flow.Packet.Flow.dst_port ())
       ~offer:(fun f -> Router.inject r ~port:0 f)
       ());
  (* Four barriers: the invariants must hold mid-flight, not only after
     the queues drain. *)
  for _ = 1 to 4 do
    Router.run_for r ~us:500.
  done;
  note_sites r.Router.injector;
  {
    injected =
      (match r.Router.injector with
      | None -> 0
      | Some inj -> Fault.Injector.total inj);
    counts =
      (match r.Router.injector with
      | None -> []
      | Some inj -> Fault.Injector.counts inj);
    violations = Fault.Invariant.violations r.Router.invariants;
    delivered = Router.delivered_total r;
    pkts_in =
      Sim.Stats.Counter.value r.Router.istats.Router.Input_loop.pkts_in;
    fault_json =
      Telemetry.Json.Obj
        [
          ( "injector",
            match r.Router.injector with
            | None -> Telemetry.Json.Null
            | Some inj -> Fault.Injector.to_json inj );
          ("invariants", Fault.Invariant.to_json r.Router.invariants);
        ];
  }

(* One extra matrix combo for the multi-field classifier: rule churn
   while bursty frame loss damages the wire, with the flows workload on
   every port.  A churn fiber adds and removes rules against a live
   mirror as the router forwards; at each of the four barriers every key
   in a fixed audit set is cross-checked against an oracle over the
   mirror.  Churn under faults may cost packets, never a stale or wrong
   classification — and the router-wide invariants must hold at every
   barrier exactly as in the plain scenarios. *)
let classified_spec = "mac_loss:0.02,mac_burst:4"

let classified_churn () =
  let open Forwarders in
  let scenario =
    match Fault.Scenario.parse classified_spec with
    | Ok s -> Fault.Scenario.with_seed s (Int64.of_int seed)
    | Error msg ->
        failwith ("fault_matrix: bad spec " ^ classified_spec ^ ": " ^ msg)
  in
  let config = { Router.default_config with Router.faults = scenario } in
  let r = Router.create ~config () in
  for p = 0 to config.Router.n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  let cls = Classifier.create ~cache_capacity:512 () in
  let crng = Sim.Rng.create (Int64.of_int (seed + 7)) in
  let pool =
    Array.of_list
      (Classifier.Gen.rules ~rng:crng ~n:200
         ~n_ports:config.Router.n_ports ())
  in
  let live = Hashtbl.create 64 in
  Array.iteri
    (fun i ru ->
      if i < 64 then begin
        Classifier.add cls ru;
        Hashtbl.replace live ru ()
      end)
    pool;
  (match
     Router.Iface.install r.Router.iface ~key:Packet.Flow.All
       ~fwdr:(Classifier.forwarder ~cm:config.Router.cm cls)
       ~where:Router.Iface.ME ()
   with
  | Ok _ -> ()
  | Error es ->
      failwith ("fault_matrix: classifier admission: " ^ String.concat ";" es));
  Router.start r;
  let writes = ref 0 in
  Sim.Engine.spawn r.Router.engine "classifier-churn" (fun () ->
      while true do
        Sim.Engine.wait_in r.Router.engine 20_000_000;
        let ru = Sim.Rng.pick crng pool in
        if Hashtbl.mem live ru then begin
          ignore (Classifier.remove cls ru);
          Hashtbl.remove live ru
        end
        else begin
          Classifier.add cls ru;
          Hashtbl.replace live ru ()
        end;
        incr writes
      done);
  let trng = Sim.Rng.create (Int64.of_int seed) in
  for p = 0 to config.Router.n_ports - 1 do
    let rng = Sim.Rng.split trng in
    let fl =
      Workload.Flows.create ~rng
        {
          Workload.Flows.default with
          pps = 150_000.;
          n_subnets = config.Router.n_ports;
        }
    in
    ignore
      (Workload.Flows.spawn fl r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~offer:(fun f -> Router.inject r ~port:p f))
  done;
  let krng = Sim.Rng.create (Int64.of_int (seed + 9)) in
  let addr () =
    Packet.Ipv4.addr_of_string
      (Printf.sprintf "10.%d.0.%d" (Sim.Rng.int krng 16)
         (1 + Sim.Rng.int krng 200))
  in
  let keys =
    Array.init 48 (fun _ ->
        {
          Packet.Flow.f_src = addr ();
          f_src_port = 1024 + Sim.Rng.int krng 64;
          f_dst = addr ();
          f_dst_port = (if Sim.Rng.int krng 2 = 0 then 80 else 443);
          f_proto = (if Sim.Rng.int krng 2 = 0 then 6 else 17);
          f_dscp = Sim.Rng.int krng 8 lsl 3;
        })
  in
  let oracle k =
    Hashtbl.fold
      (fun ru () best ->
        if Classifier.matches ru k then
          match best with
          | None -> Some ru
          | Some b ->
              if Classifier.compare_rule ru b < 0 then Some ru else best
        else best)
      live None
  in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Classifier.compare_rule x y = 0
    | _ -> false
  in
  let stale = ref 0 and audited = ref 0 in
  for _ = 1 to 4 do
    Router.run_for r ~us:500.;
    Array.iter
      (fun k ->
        incr audited;
        if not (same (Classifier.lookup cls k) (oracle k)) then incr stale)
      keys
  done;
  note_sites r.Router.injector;
  let injected =
    match r.Router.injector with
    | None -> 0
    | Some inj -> Fault.Injector.total inj
  in
  let violations = Fault.Invariant.violations r.Router.invariants in
  let n_viol = List.length violations in
  Report.info
    "%-24s %5d injected, %4d delivered, %d rule writes, %d/%d audits stale, \
     %d violation(s)"
    "classifier churn + loss" injected (Router.delivered_total r) !writes
    !stale !audited n_viol;
  Report.info "  classifier: %d rules live, %d cache hits, %d flushes"
    (Classifier.n_rules cls) (Classifier.cache_hits cls)
    (Classifier.cache_flushes cls);
  if injected = 0 then begin
    incr failures;
    Report.info "  FAULT MATRIX FAILURE: scenario injected no faults"
  end;
  if !writes = 0 then begin
    (* Churn that never wrote a rule proves nothing about staleness. *)
    incr failures;
    Report.info "  FAULT MATRIX FAILURE: churn fiber performed no writes"
  end;
  if n_viol > 0 then begin
    failures := !failures + n_viol;
    List.iter
      (fun (v : Fault.Invariant.violation) ->
        Report.info "  VIOLATION [%Ld] %s: %s" v.Fault.Invariant.at
          v.Fault.Invariant.name v.Fault.Invariant.detail)
      violations
  end;
  if !stale > 0 then begin
    failures := !failures + !stale;
    Report.info
      "  FAULT MATRIX FAILURE: %d stale classifier answer(s) under churn"
      !stale
  end;
  Report.row ~unit_:"violations"
    ~name:(Printf.sprintf "violations [classifier churn + %s]" classified_spec)
    ~paper:0. ~measured:(float_of_int n_viol);
  Report.row ~unit_:"lookups" ~name:"classifier stale answers under faults"
    ~paper:0. ~measured:(float_of_int !stale);
  Report.row ~unit_:"writes" ~name:"classifier rule writes under faults"
    ~paper:100. ~measured:(float_of_int !writes)

let run () =
  Report.section
    "Fault matrix: invariants under deterministic injection (seed-replayable)";
  let attachments = ref [] in
  List.iter
    (fun (spec, what) ->
      let o = attempt spec in
      let n_viol = List.length o.violations in
      Report.info "%-24s %5d injected, %4d/%4d pkts delivered/in, %d violation(s)"
        what o.injected o.delivered o.pkts_in n_viol;
      if o.counts <> [] then
        Report.info "  %s"
          (String.concat " "
             (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) o.counts));
      if spec <> "none" && o.injected = 0 then begin
        (* A scenario that injects nothing proves nothing: treat it as a
           matrix failure so a silently unwired fault site cannot pass. *)
        incr failures;
        Report.info "  FAULT MATRIX FAILURE: scenario injected no faults"
      end;
      if n_viol > 0 then begin
        failures := !failures + n_viol;
        List.iter
          (fun (v : Fault.Invariant.violation) ->
            Report.info "  VIOLATION [%Ld] %s: %s" v.Fault.Invariant.at
              v.Fault.Invariant.name v.Fault.Invariant.detail)
          o.violations;
        Report.info "  repro: router_cli run --faults '%s' --seed %d -d 2"
          spec seed
      end;
      Report.row ~unit_:"violations"
        ~name:(Printf.sprintf "violations [%s]" spec)
        ~paper:0. ~measured:(float_of_int n_viol);
      attachments := (spec, o.fault_json) :: !attachments)
    scenarios;
  classified_churn ();
  let never =
    List.filter
      (fun site -> not (Hashtbl.mem injected_sites site))
      Fault.Injector.all_sites
  in
  if never <> [] then begin
    failures := !failures + List.length never;
    Report.info "  FAULT MATRIX FAILURE: site(s) never injected: %s"
      (String.concat " " (List.map Fault.Injector.site_name never))
  end;
  Report.row ~unit_:"sites" ~name:"fault sites never injected" ~paper:0.
    ~measured:(float_of_int (List.length never));
  Report.attach "fault_matrix"
    (Telemetry.Json.Obj (List.rev !attachments));
  Report.row ~unit_:"violations" ~name:"total invariant violations" ~paper:0.
    ~measured:(float_of_int !failures)
