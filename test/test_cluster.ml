(* Tests for the section 6 cluster configuration. *)

let addr = Packet.Ipv4.addr_of_string

let local_forwarding_stays_local () =
  let c = Cluster.create ~members:2 () in
  (* Global port 3 lives on member 0; 10.3/16 traffic entering member 0
     never crosses the fabric. *)
  let f =
    Packet.Build.udp ~src:(addr "10.250.0.1") ~dst:(addr "10.3.0.1")
      ~src_port:1 ~dst_port:2 ()
  in
  Alcotest.(check bool) "inject" true (Cluster.inject c ~global_port:0 f);
  Cluster.run_for c ~us:300.;
  Alcotest.(check int) "delivered locally" 1 (Cluster.delivered c ~global_port:3);
  Alcotest.(check int) "no fabric crossing" 0
    (Cluster.fabric_frames c)

let cross_member_forwarding () =
  let c = Cluster.create ~members:2 () in
  (* Global port 11 = member 1, local port 3; capture what it emits. *)
  let final = ref None in
  Router.connect c.Cluster.members.(1) ~port:3 (fun g -> final := Some g);
  let f =
    Packet.Build.udp ~src:(addr "10.250.0.1") ~dst:(addr "10.11.0.1")
      ~src_port:1 ~dst_port:2 ~ttl:64 ()
  in
  Alcotest.(check bool) "inject" true (Cluster.inject c ~global_port:0 f);
  Cluster.run_for c ~us:500.;
  Alcotest.(check int) "crossed the fabric" 1
    (Cluster.fabric_frames c);
  Alcotest.(check int) "delivered on the owner" 1
    (Cluster.delivered c ~global_port:11);
  match !final with
  | None -> Alcotest.fail "no frame captured"
  | Some g ->
      (* Two routers, two IP hops. *)
      Alcotest.(check int) "ttl decremented twice" 62 (Packet.Ipv4.get_ttl g);
      Alcotest.(check bool) "checksum still valid" true (Packet.Ipv4.valid g)

let all_to_all_no_loss () =
  let c = Cluster.create ~members:4 () in
  let rng = Sim.Rng.create 17L in
  let n_global = 32 in
  for g = 0 to n_global - 1 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~pps:30_000.
         ~gen:(fun i ->
           ignore i;
           let dst_g = Sim.Rng.int rng n_global in
           Packet.Build.udp
             ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
             ~dst:(Workload.Mix.subnet_addr ~subnet:dst_g ~host:(1 + Sim.Rng.int rng 50))
             ~src_port:1000 ~dst_port:2000 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  Cluster.run_for c ~us:6000.;
  let offered = 32. *. 30_000. *. 6e-3 in
  let delivered = Cluster.delivered_total c in
  Alcotest.(check bool)
    (Printf.sprintf "delivered %d of ~%.0f" delivered offered)
    true
    (float_of_int delivered >= 0.93 *. offered);
  Alcotest.(check bool) "substantial fabric traffic" true
    (Cluster.fabric_frames c > 1000)

let internal_link_shrinks_budget () =
  let c = Cluster.create ~members:4 () in
  (* With no fabric traffic yet, the budget equals a member's external
     share; fabric load must shrink it. *)
  let quiet = Cluster.vrp_budget_with_internal_link c ~line_rate_pps:1.128e6 in
  ignore
    (Workload.Source.spawn_constant
       (Cluster.engine_of_global_port c 0)
       ~name:"cross"
       ~pps:100_000.
       ~gen:(fun i ->
         ignore i;
         Packet.Build.udp ~src:(addr "10.250.0.1") ~dst:(addr "10.30.0.1")
           ~src_port:1 ~dst_port:2 ())
       ~offer:(fun f -> Cluster.inject c ~global_port:0 f)
       ());
  Cluster.run_for c ~us:5000.;
  let loaded = Cluster.vrp_budget_with_internal_link c ~line_rate_pps:1.128e6 in
  Alcotest.(check bool)
    (Printf.sprintf "budget shrinks (%d -> %d cycles)"
       quiet.Router.Vrp.b_cycles loaded.Router.Vrp.b_cycles)
    true
    (loaded.Router.Vrp.b_cycles < quiet.Router.Vrp.b_cycles)

(* --- global-port mapping boundaries ---------------------------------- *)

let member_of_global_port_boundaries () =
  let c = Cluster.create ~members:3 ~ports_per_member:4 () in
  let check g expect =
    Alcotest.(check (pair int int))
      (Printf.sprintf "global port %d" g)
      expect
      (Cluster.member_of_global_port c g)
  in
  check 0 (0, 0);
  check 3 (0, 3);
  check 4 (1, 0);
  check 7 (1, 3);
  check 8 (2, 0);
  check 11 (2, 3)

(* --- hand-computed VRP budget ----------------------------------------- *)

let vrp_budget_hand_computed () =
  (* A quiet cluster has zero internal pps, so the documented formula
     reduces to per_member = line_rate / members: the cluster's answer
     must equal a direct Capacity.vrp_budget call at that rate. *)
  List.iter
    (fun members ->
      let c = Cluster.create ~members () in
      let line = 1.128e6 in
      let expected =
        Router.Capacity.vrp_budget Router.Capacity.default ~contexts:16
          ~line_rate_pps:(line /. float_of_int members)
          ~hashes:3
      in
      let got = Cluster.vrp_budget_with_internal_link c ~line_rate_pps:line in
      Alcotest.(check int)
        (Printf.sprintf "%d members: b_cycles matches per-member formula"
           members)
        expected.Router.Vrp.b_cycles got.Router.Vrp.b_cycles)
    [ 2; 4 ];
  (* Boundary: halving the member count doubles each member's share, so
     the 2-member budget cannot exceed the 4-member one. *)
  let b n =
    (Cluster.vrp_budget_with_internal_link
       (Cluster.create ~members:n ())
       ~line_rate_pps:1.128e6)
      .Router.Vrp.b_cycles
  in
  Alcotest.(check bool) "2-member budget <= 4-member budget" true (b 2 <= b 4)

(* --- fault plane ------------------------------------------------------- *)

let parse_faults spec ~seed =
  match Fault.Cluster_scenario.parse spec with
  | Ok s -> Fault.Cluster_scenario.with_seed s seed
  | Error msg -> Alcotest.failf "bad cluster spec %S: %s" spec msg

let scenario_roundtrip () =
  List.iter
    (fun spec ->
      let s = parse_faults spec ~seed:0L in
      let printed = Fault.Cluster_scenario.to_spec s in
      let s' = parse_faults printed ~seed:0L in
      Alcotest.(check string)
        (Printf.sprintf "round-trip %s" spec)
        printed
        (Fault.Cluster_scenario.to_spec s'))
    [
      "none";
      "link_drop:1:200:600:0.5";
      "link_corrupt:0:100:400:0.3";
      "link_stall:2:100:500:40";
      "crash:3:500:400";
      "crash:1:400:0";
      "link_drop:0:200:700:0.4;link_stall:1:300:900:30;crash:1:500:600";
    ];
  List.iter
    (fun bad ->
      match Fault.Cluster_scenario.parse bad with
      | Ok _ -> Alcotest.failf "spec %S should not parse" bad
      | Error _ -> ())
    [
      "link_drop:1:200:600:1.5" (* rate out of range *);
      "crash:1:200:600:0.5" (* crash takes no param *);
      "link_drop:x:200:600" (* bad member *);
      "meteor:1:200:600" (* unknown kind *);
      "link_drop:1:200" (* missing field *);
    ]

(* Drive a deterministic line-rate all-to-all workload and return the
   per-port delivery schedule plus the full telemetry digest. *)
let drive_cluster ?faults () =
  let c =
    match faults with
    | None -> Cluster.create ~members:2 ~ports_per_member:4 ()
    | Some f -> Cluster.create ~members:2 ~ports_per_member:4 ~faults:f ()
  in
  let rng = Sim.Rng.create 23L in
  for g = 0 to 7 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~mbps:100. ~frame_len:64
         ~gen:(Workload.Mix.udp_uniform ~rng ~n_subnets:8 ~frame_len:64 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  for _ = 1 to 4 do
    Cluster.run_for c ~us:400.
  done;
  let per_port = List.init 8 (fun g -> Cluster.delivered c ~global_port:g) in
  let md5 =
    Digest.to_hex
      (Digest.string (Telemetry.Json.to_string (Cluster.telemetry_snapshot c)))
  in
  (c, per_port, md5)

let zero_fault_identity () =
  (* An explicit empty scenario — even with a nonzero seed — must be
     byte-identical to a cluster built with no fault argument at all: no
     extra fibers, no RNG draws, the same per-port schedule and the same
     telemetry snapshot. *)
  let _, plain_ports, plain_md5 = drive_cluster () in
  let zero =
    Fault.Cluster_scenario.with_seed Fault.Cluster_scenario.zero 99L
  in
  let c, zero_ports, zero_md5 = drive_cluster ~faults:zero () in
  Alcotest.(check (list int)) "identical per-port schedule" plain_ports
    zero_ports;
  Alcotest.(check string) "identical telemetry snapshot" plain_md5 zero_md5;
  Alcotest.(check bool) "no violations" true (Cluster.invariants_ok c)

let seed_replay_identity () =
  (* Acceptance: replaying any scenario kind with the same seed yields the
     identical metrics JSON. *)
  List.iter
    (fun spec ->
      let run () =
        let faults = parse_faults spec ~seed:5L in
        let c, _, md5 = drive_cluster ~faults () in
        (match Cluster.violations c with
        | [] -> ()
        | (src, v) :: _ as vs ->
            Alcotest.failf
              "spec %s: %d violation(s), first [%s] %s: %s (repro: \
               router_cli cluster --cluster-faults '%s' --seed 5 -d 2)"
              spec (List.length vs) src v.Fault.Invariant.name
              v.Fault.Invariant.detail spec);
        md5
      in
      Alcotest.(check string)
        (Printf.sprintf "replay identical [%s]" spec)
        (run ()) (run ()))
    [
      "link_drop:1:200:600:0.5" (* link damage *);
      "link_corrupt:0:150:700:0.4";
      "link_stall:1:100:800:30";
      "crash:1:400:0" (* member crash, no restart *);
      "crash:1:300:500" (* crash + restart *);
    ]

(* Negative test: frames addressed to a crashed member are dropped with
   an accounted cause — never silently lost, never accepted. *)
let crashed_member_drops_accounted () =
  let faults = parse_faults "crash:1:200:0" ~seed:8L in
  let c = Cluster.create ~members:2 ~ports_per_member:4 ~faults () in
  let rng = Sim.Rng.create 8L in
  (* All of member 0's ports fire cross traffic at member 1's subnets. *)
  for g = 0 to 3 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "cross%d" g)
         ~pps:40_000.
         ~gen:(fun _ ->
           Packet.Build.udp
             ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
             ~dst:
               (Workload.Mix.subnet_addr
                  ~subnet:(4 + Sim.Rng.int rng 4)
                  ~host:2)
             ~src_port:1000 ~dst_port:2000 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  Cluster.run_for c ~us:600.;
  let mid = List.init 4 (fun p -> Cluster.delivered c ~global_port:(4 + p)) in
  Cluster.run_for c ~us:600.;
  Cluster.run_for c ~us:600.;
  let fin = List.init 4 (fun p -> Cluster.delivered c ~global_port:(4 + p)) in
  Alcotest.(check bool) "member 1 is down" false (Cluster.member_up c 1);
  Alcotest.(check int) "one crash epoch" 1 (Cluster.crash_epochs c 1);
  Alcotest.(check (list int))
    "no deliveries out of the crashed member after the first barrier" mid fin;
  let fc = Cluster.fabric_counts c in
  Alcotest.(check bool)
    (Printf.sprintf "fabric drops carry the down cause (%d)"
       fc.Cluster.dropped_down)
    true
    (fc.Cluster.dropped_down > 50);
  Alcotest.(check int)
    "every offered frame is accounted (delivered + drops + in flight)"
    fc.Cluster.offered
    (fc.Cluster.delivered + fc.Cluster.dropped_link + fc.Cluster.dropped_down
   + fc.Cluster.dropped_unknown + fc.Cluster.dropped_queue
   + fc.Cluster.rx_refused + fc.Cluster.in_flight + fc.Cluster.queued);
  (* The dead member's ports refuse offers outright. *)
  let f =
    Packet.Build.udp ~src:(addr "10.250.0.1") ~dst:(addr "10.0.0.1")
      ~src_port:1 ~dst_port:2 ()
  in
  Alcotest.(check bool) "offer to a crashed member refused" false
    (Cluster.inject c ~global_port:4 f);
  match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ ->
      Alcotest.failf "unexpected violation [%s] %s: %s" src
        v.Fault.Invariant.name v.Fault.Invariant.detail

let crash_restart_recovers () =
  let faults = parse_faults "crash:1:300:400" ~seed:3L in
  (* Frame pools on: per-member pool conservation must also hold across
     the crash/restart epoch (each member audits it at every barrier). *)
  let c =
    Cluster.create ~members:2 ~ports_per_member:4 ~faults ~frame_pool:true ()
  in
  let rng = Sim.Rng.create 3L in
  for g = 0 to 7 do
    let m, _ = Cluster.member_of_global_port c g in
    let pool = Option.get (Cluster.frame_pool c m) in
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~mbps:100. ~frame_len:64
         ~gen:(Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:8 ~frame_len:64
                 ())
         ~offer:(fun f ->
           let ok = Cluster.inject c ~global_port:g f in
           if not ok then Packet.Frame_pool.give pool f;
           ok)
         ())
  done;
  Cluster.run_for c ~us:700.;
  let mid = Cluster.delivered c ~global_port:4 + Cluster.delivered c ~global_port:5 in
  for _ = 1 to 4 do
    Cluster.run_for c ~us:400.
  done;
  let fin = Cluster.delivered c ~global_port:4 + Cluster.delivered c ~global_port:5 in
  Alcotest.(check bool) "member 1 is back up" true (Cluster.member_up c 1);
  Alcotest.(check int) "one crash epoch" 1 (Cluster.crash_epochs c 1);
  Alcotest.(check bool) "deliveries resumed after the restart" true (fin > mid);
  (match Cluster.recovery_latency_us c 1 with
  | None -> Alcotest.fail "recovery latency never measured"
  | Some l ->
      Alcotest.(check bool)
        (Printf.sprintf "recovery latency sane (%.1f us)" l)
        true
        (l >= 0. && l < 1000.));
  let fc = Cluster.fabric_counts c in
  Alcotest.(check bool) "down-window drops accounted" true
    (fc.Cluster.dropped_down > 0);
  match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ ->
      Alcotest.failf
        "unexpected violation [%s] %s: %s (repro: router_cli cluster \
         --cluster-faults 'crash:1:300:400' --seed 3 -d 2)"
        src v.Fault.Invariant.name v.Fault.Invariant.detail

(* Drive the canonical fault matrix's 4-member workload at a given
   domain count and return the per-member telemetry digests — the
   quantity the conservative-lookahead scheduler promises is independent
   of [domains]. *)
let matrix_digests ?fabric_queue spec ~seed ~domains =
  let faults = parse_faults spec ~seed:(Int64.of_int seed) in
  let c =
    Cluster.create ~members:4 ~ports_per_member:4 ~domains ~faults
      ~frame_pool:true ?fabric_queue ()
  in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for g = 0 to 15 do
    let m, _ = Cluster.member_of_global_port c g in
    let pool = Option.get (Cluster.frame_pool c m) in
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~mbps:100. ~frame_len:64
         ~gen:(Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:16 ~frame_len:64
                 ())
         ~offer:(fun f ->
           let ok = Cluster.inject c ~global_port:g f in
           if not ok then Packet.Frame_pool.give pool f;
           ok)
         ())
  done;
  (* Several barriers so damage windows, crash epochs and their audits
     all land mid-run, as in the fault-matrix bench. *)
  for _ = 1 to 3 do
    Cluster.run_for c ~us:500.
  done;
  (match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ as vs ->
      Alcotest.failf
        "spec %s domains=%d: %d violation(s), first [%s] %s: %s" spec domains
        (List.length vs) src v.Fault.Invariant.name v.Fault.Invariant.detail);
  Array.to_list (Array.init 4 (fun m -> Cluster.member_metrics_md5 c m))

let parallel_identity_matrix () =
  (* Acceptance: for every scenario x seed of the canonical matrix, a
     parallel run's per-member digests equal the sequential run's,
     bit for bit. *)
  List.iter
    (fun (spec, _) ->
      List.iter
        (fun seed ->
          let reference = matrix_digests spec ~seed ~domains:1 in
          List.iter
            (fun domains ->
              Alcotest.(check (list string))
                (Printf.sprintf "digests identical [%s seed=%d domains=%d]"
                   spec seed domains)
                reference
                (matrix_digests spec ~seed ~domains))
            [ 2; 4 ])
        [ 11; 42 ])
    Fault.Cluster_scenario.matrix

let queue_cfg spec =
  match Cluster.Fabric_queue.parse spec with
  | Ok c -> c
  | Error m -> Alcotest.failf "bad queue spec %S: %s" spec m

(* Saturate member 1's uplink behind a finite RED queue, then hit the
   congested link with the matrix's stall-then-drop chaser.  Extended
   conservation — offered = settled + in_flight + queued — must hold
   through congestion, backpressure and damage, audited at every
   barrier and re-checked here from [fabric_counts]. *)
let queue_congestion_stall_then_drop () =
  let faults =
    parse_faults "link_stall:1:200:500:40;link_drop:1:700:600:0.6" ~seed:9L
  in
  let fabric_queue = queue_cfg "red:16:4:12:0.4@200" in
  let c =
    Cluster.create ~members:2 ~ports_per_member:4 ~faults ~fabric_queue ()
  in
  let rng = Sim.Rng.create 9L in
  (* All of member 1's ports fire cross traffic at member 0's subnets:
     ~375 Mbps offered against a 200 Mbps uplink drain. *)
  for g = 4 to 7 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "sat%d" g)
         ~pps:140_000.
         ~gen:(fun _ ->
           Packet.Build.udp
             ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
             ~dst:
               (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 4) ~host:2)
             ~src_port:1000 ~dst_port:2000 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  for _ = 1 to 3 do
    Cluster.run_for c ~us:500.
  done;
  let fc = Cluster.fabric_counts c in
  Alcotest.(check bool)
    (Printf.sprintf "the queue dropped under congestion (%d)"
       fc.Cluster.dropped_queue)
    true
    (fc.Cluster.dropped_queue > 0);
  Alcotest.(check bool)
    (Printf.sprintf "backpressure refused external injects (%d)"
       fc.Cluster.bp_refused)
    true
    (fc.Cluster.bp_refused > 0);
  Alcotest.(check bool) "the stall window charged latency" true
    (fc.Cluster.stalled > 0);
  Alcotest.(check bool) "the drop window lost frames" true
    (fc.Cluster.dropped_link > 0);
  Alcotest.(check int)
    "extended conservation: offered = settled + in_flight + queued"
    fc.Cluster.offered
    (fc.Cluster.delivered + fc.Cluster.dropped_link + fc.Cluster.dropped_down
   + fc.Cluster.dropped_unknown + fc.Cluster.dropped_queue
   + fc.Cluster.rx_refused + fc.Cluster.in_flight + fc.Cluster.queued);
  match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ ->
      Alcotest.failf
        "unexpected violation [%s] %s: %s (repro: router_cli cluster \
         --cluster-faults 'link_stall:1:200:500:40;link_drop:1:700:600:0.6' \
         --fabric-queue 'red:16:4:12:0.4@200' --seed 9 -d 2)"
        src v.Fault.Invariant.name v.Fault.Invariant.detail

(* A crash flushes the dead member's uplink queue; every stranded frame
   must land in [dropped_queue], not vanish. *)
let queue_flushed_on_crash_accounted () =
  let faults = parse_faults "crash:1:250:0" ~seed:4L in
  (* 100 Mbps drain against ~375 Mbps offered keeps the uplink queue deep
     when the crash lands. *)
  let fabric_queue = queue_cfg "taildrop:64@100" in
  let c =
    Cluster.create ~members:2 ~ports_per_member:4 ~faults ~fabric_queue ()
  in
  let rng = Sim.Rng.create 4L in
  for g = 4 to 7 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "sat%d" g)
         ~pps:140_000.
         ~gen:(fun _ ->
           Packet.Build.udp
             ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
             ~dst:
               (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 4) ~host:2)
             ~src_port:1000 ~dst_port:2000 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  Cluster.run_for c ~us:400.;
  Cluster.run_for c ~us:400.;
  Alcotest.(check bool) "member 1 is down" false (Cluster.member_up c 1);
  let flushed = Cluster.Fabric_queue.flushed c.Cluster.eg_queues.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "the crash flushed the uplink queue (%d)" flushed)
    true (flushed > 0);
  Alcotest.(check int) "flushed queue fully released" 0
    (Cluster.Fabric_queue.occupancy c.Cluster.eg_queues.(1));
  let fc = Cluster.fabric_counts c in
  Alcotest.(check bool) "flushed frames accounted as queue drops" true
    (fc.Cluster.dropped_queue >= flushed);
  Alcotest.(check int)
    "extended conservation holds across the flush"
    fc.Cluster.offered
    (fc.Cluster.delivered + fc.Cluster.dropped_link + fc.Cluster.dropped_down
   + fc.Cluster.dropped_unknown + fc.Cluster.dropped_queue
   + fc.Cluster.rx_refused + fc.Cluster.in_flight + fc.Cluster.queued);
  match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ ->
      Alcotest.failf "unexpected violation [%s] %s: %s" src
        v.Fault.Invariant.name v.Fault.Invariant.detail

(* Acceptance: with queueing (and its backpressure) enabled, parallel
   runs stay bit-identical to sequential ones across the whole fault
   matrix. *)
let parallel_identity_queued () =
  let fabric_queue = queue_cfg "red:24:6:18:0.5@300" in
  List.iter
    (fun (spec, _) ->
      let reference = matrix_digests ~fabric_queue spec ~seed:11 ~domains:1 in
      List.iter
        (fun domains ->
          Alcotest.(check (list string))
            (Printf.sprintf "queued digests identical [%s domains=%d]" spec
               domains)
            reference
            (matrix_digests ~fabric_queue spec ~seed:11 ~domains))
        [ 2; 4 ])
    Fault.Cluster_scenario.matrix

let parallel_smoke () =
  (* A 2-domain zero-fault run forwards traffic and audits clean — the
     quick-tier check that the worker-domain machinery works at all. *)
  let reference = matrix_digests "none" ~seed:7 ~domains:1 in
  Alcotest.(check (list string))
    "2-domain digests match sequential" reference
    (matrix_digests "none" ~seed:7 ~domains:2)

let lookahead_validated () =
  (* The epoch length (the lookahead) is the switch latency, the fabric's
     minimum; one that is not positive, or rounds to zero picoseconds,
     would never advance the clock.  [create] must refuse rather than
     hang or silently lose determinism. *)
  let expect_invalid what fn =
    match fn () with
    | (_ : Cluster.t) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero domains" (fun () -> Cluster.create ~domains:0 ());
  expect_invalid "one member" (fun () -> Cluster.create ~members:1 ());
  (* Global port g routes 10.g.0.0/16. *)
  expect_invalid "257 global ports" (fun () ->
      Cluster.create ~members:2 ~ports_per_member:129 ())

(* Every member routes every global subnet: its own through
   [Router.add_route], the others' to the owner's uplink MAC.  Both
   lookup forms answer the next hop [create] installed. *)
let uplink_nexthops_round_trip () =
  let c = Cluster.create () in
  let ppm = 8 in
  Array.iteri
    (fun m r ->
      let routes = r.Router.routes in
      for g = 0 to (4 * ppm) - 1 do
        let owner = g / ppm in
        let want =
          if owner = m then Router.nexthop r (g mod ppm)
          else
            {
              Iproute.Table.out_port = ppm + (g mod 2);
              gateway_mac = 0x02000000C100 lor owner;
            }
        in
        let a = addr (Printf.sprintf "10.%d.1.1" g) in
        let what = Printf.sprintf "member %d, subnet %d" m g in
        Alcotest.(check bool) (what ^ ": lookup") true
          (Iproute.Table.lookup routes a = Some want);
        let hit = ref false in
        Alcotest.(check bool) (what ^ ": cached lookup") true
          (Iproute.Table.lookup_cached routes
             (Int32.to_int a land 0xFFFFFFFF)
             ~hit
          = want)
      done)
    c.Cluster.members

let tests =
  [
    Alcotest.test_case "local stays local" `Quick local_forwarding_stays_local;
    Alcotest.test_case "cross-member forwarding" `Quick cross_member_forwarding;
    Alcotest.test_case "uplink next hops round-trip" `Quick
      uplink_nexthops_round_trip;
    Alcotest.test_case "all-to-all no loss" `Slow all_to_all_no_loss;
    Alcotest.test_case "internal link shrinks budget" `Quick
      internal_link_shrinks_budget;
    Alcotest.test_case "global-port mapping boundaries" `Quick
      member_of_global_port_boundaries;
    Alcotest.test_case "VRP budget matches hand-computed formula" `Quick
      vrp_budget_hand_computed;
    Alcotest.test_case "cluster scenario spec round-trip" `Quick
      scenario_roundtrip;
    Alcotest.test_case "zero-fault identity" `Slow zero_fault_identity;
    Alcotest.test_case "seed-replay identity per scenario kind" `Slow
      seed_replay_identity;
    Alcotest.test_case "crashed member drops accounted" `Quick
      crashed_member_drops_accounted;
    Alcotest.test_case "crash + restart recovers (pooled)" `Slow
      crash_restart_recovers;
    Alcotest.test_case "lookahead and domain bounds validated" `Quick
      lookahead_validated;
    Alcotest.test_case "2-domain run matches sequential (smoke)" `Quick
      parallel_smoke;
    Alcotest.test_case "parallel identity across the fault matrix" `Slow
      parallel_identity_matrix;
    Alcotest.test_case "congested queue survives stall-then-drop" `Quick
      queue_congestion_stall_then_drop;
    Alcotest.test_case "crash flushes the uplink queue accountably" `Quick
      queue_flushed_on_crash_accounted;
    Alcotest.test_case "parallel identity with queueing enabled" `Slow
      parallel_identity_queued;
  ]
