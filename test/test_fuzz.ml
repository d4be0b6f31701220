(* Failure injection at the wire, rebuilt on the fault plane: seeded
   scenarios damage frames per MAC port (corruption, truncation,
   whole-frame garbage, burst loss) while the invariant registry audits
   the router at every barrier.  The contract is the paper's robustness
   goal: "the router should continue to behave correctly regardless of
   the offered workload" — no crash, no invalid packet forwarded, and the
   fast path keeps forwarding legitimate traffic alongside the damage.
   Every failure message carries the seed of the run that produced it. *)

let addr = Packet.Ipv4.addr_of_string

let wire_spec =
  "mac_corrupt:0.25,mac_truncate:0.15,mac_garbage:0.15,mac_loss:0.05,\
   mac_burst:3"

let scenario_of ~seed spec =
  match Fault.Scenario.parse spec with
  | Ok s -> Fault.Scenario.with_seed s seed
  | Error msg -> Alcotest.failf "bad scenario %S: %s" spec msg

let make_router ~seed spec =
  let config =
    { Router.default_config with Router.faults = scenario_of ~seed spec }
  in
  let r = Router.create ~config () in
  for p = 0 to 7 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  r

(* A frame that lies about itself: claims a bigger IP payload than the
   frame carries.  The wire injector never fabricates this shape, so it
   stays a hand-built part of the offered mix. *)
let lying_frame rng =
  let f =
    Packet.Build.udp ~src:(addr "10.250.0.1") ~dst:(addr "10.2.0.1")
      ~src_port:1 ~dst_port:2 ()
  in
  Packet.Ipv4.set_total_len f (60 + Sim.Rng.int rng 1400);
  f

let drive_damaged ~seed r =
  Router.start r;
  let delivered_valid = ref 0 in
  let invalid_out = ref 0 in
  (* Observe everything leaving the router: nothing invalid may escape,
     independently of the registry's own no-invalid-escape audit. *)
  for p = 0 to 7 do
    Router.connect r ~port:p (fun f ->
        if
          Packet.Frame.len f >= 14
          && Packet.Ethernet.get_ethertype f = Packet.Ethernet.ethertype_ipv4
          && Packet.Ipv4.valid f
        then incr delivered_valid
        else incr invalid_out)
  done;
  let rng = Sim.Rng.create seed in
  for i = 0 to 1999 do
    let f =
      if i mod 5 = 0 then lying_frame rng
      else
        Packet.Build.udp ~src:(addr "10.250.0.9")
          ~dst:
            (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 8)
               ~host:(1 + Sim.Rng.int rng 50))
          ~src_port:(Sim.Rng.int rng 65536)
          ~dst_port:(Sim.Rng.int rng 65536)
          ()
    in
    ignore (Router.inject r ~port:(i mod 8) f)
  done;
  (* Several barriers: the invariants must hold while the damage is in
     flight, not only after the queues drain. *)
  for _ = 1 to 4 do
    Router.run_for r ~us:5_000.
  done;
  (!delivered_valid, !invalid_out)

let check_clean ~seed ~spec r =
  match Fault.Invariant.violations r.Router.invariants with
  | [] -> ()
  | v :: _ as vs ->
      Alcotest.failf
        "seed %Ld: %d invariant violation(s), first: %s: %s (repro: \
         router_cli run --faults '%s' --seed %Ld -d 20)"
        seed (List.length vs) v.Fault.Invariant.name v.Fault.Invariant.detail
        spec seed

let wire_damage_survival () =
  (* Sweep seeds: each is an independent damage pattern, and a failing one
     is named so the run replays exactly. *)
  List.iter
    (fun seed ->
      let r = make_router ~seed wire_spec in
      let delivered_valid, invalid_out = drive_damaged ~seed r in
      check_clean ~seed ~spec:wire_spec r;
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: no invalid frame escaped" seed)
        0 invalid_out;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: legitimate traffic still flowed (%d)" seed
           delivered_valid)
        true
        (delivered_valid >= 500);
      let injected =
        match r.Router.injector with
        | None -> 0
        | Some inj -> Fault.Injector.total inj
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: wire damage actually injected (%d)" seed
           injected)
        true (injected > 0))
    [ 1L; 2L; 12345L ]

let per_port_damage () =
  (* Each port suffers its own damage kind, from its own seeded injector:
     port 0 corrupts, port 1 truncates, port 2 replaces frames with
     garbage, port 3 drops bursts.  The rest of the router (and the
     invariant audit) runs under the base scenario. *)
  let seed = 7L in
  let r = make_router ~seed "mac_loss:0.01" in
  let port_specs =
    [
      (0, "mac_corrupt:0.5");
      (1, "mac_truncate:0.5");
      (2, "mac_garbage:0.5");
      (3, "mac_loss:0.5,mac_burst:4");
    ]
  in
  let injs =
    List.map
      (fun (p, spec) ->
        let inj =
          Fault.Injector.create
            (scenario_of ~seed:(Int64.add seed (Int64.of_int p)) spec)
        in
        Ixp.Mac_port.set_faults r.Router.chip.Ixp.Chip.ports.(p) inj;
        (p, spec, inj))
      port_specs
  in
  let delivered_valid, invalid_out = drive_damaged ~seed r in
  check_clean ~seed ~spec:"mac_loss:0.01" r;
  Alcotest.(check int) "no invalid frame escaped" 0 invalid_out;
  Alcotest.(check bool)
    (Printf.sprintf "legitimate traffic still flowed (%d)" delivered_valid)
    true
    (delivered_valid >= 400);
  List.iter
    (fun (p, spec, inj) ->
      Alcotest.(check bool)
        (Printf.sprintf "port %d (%s) saw its damage kind" p spec)
        true
        (Fault.Injector.total inj > 0))
    injs;
  Alcotest.(check bool) "burst-loss port counted lost frames" true
    (Ixp.Mac_port.rx_lost r.Router.chip.Ixp.Chip.ports.(3) > 0)

let hit_frame () =
  Packet.Build.tcp ~src:(addr "10.250.0.1") ~dst:(addr "10.1.0.5")
    ~src_port:1 ~dst_port:2 ()

(* A classifier with one route (10.1.0.0/16) and one per-flow entry
   (fid 7), keyed on [hit_frame]'s flow.  Built fresh per call so two
   copies start from identical route-cache and match-counter state. *)
let fuzz_classifier () =
  let routes = Iproute.Table.create () in
  Iproute.Table.add routes
    (Iproute.Prefix.of_string "10.1.0.0/16")
    { Iproute.Table.out_port = 1; gateway_mac = 0 };
  let cl = Router.Classifier.create Router.Cost_model.default ~routes in
  Router.Classifier.add cl
    {
      Router.Classifier.fid = 7;
      key =
        Packet.Flow.Tuple (Option.get (Packet.Flow.of_frame (hit_frame ())));
      where = Router.Desc.Microengine;
      fwdr =
        Router.Forwarder.make ~name:"watch" ~code:[] ~state_bytes:0
          (fun ~state:_ _ ~in_port:_ -> Router.Forwarder.Continue);
      state = Bytes.empty;
      matches = 0;
    };
  cl

(* A classifier's scratch verdict with the forwarders reduced to their
   fids and the route to its port, so two classifiers' verdicts compare
   structurally. *)
let scratch_verdict cl ok =
  if not ok then None
  else
    let fid (e : Router.Classifier.entry) = e.Router.Classifier.fid in
    let route = Router.Classifier.scratch_route cl in
    Some
      ( Option.map fid (Router.Classifier.scratch_per_flow cl),
        List.map fid (Router.Classifier.scratch_general cl),
        (if route == Iproute.Table.no_route then None
         else Some route.Iproute.Table.out_port),
        Router.Classifier.scratch_route_cache_hit cl )

(* Garbage bytes mostly, plus valid frames that hit the per-flow entry or
   find no route.  The charged [classify], run in an engine fiber on a
   twin classifier, must leave the scratch verdict the uncharged
   [decide] leaves, and book exactly section 4.5's instructions, two
   hashes and its SRAM read. *)
let fuzz_classifier_never_raises =
  QCheck.Test.make ~name:"classifier total on arbitrary bytes" ~count:500
    QCheck.(triple int64 (int_range 14 200) (int_bound 5))
    (fun (seed, len, kind) ->
      let rng = Sim.Rng.create seed in
      let f =
        match kind with
        | 0 -> hit_frame ()
        | 1 ->
            Packet.Build.udp ~src:(addr "10.250.0.1")
              ~dst:(addr "192.168.0.1") ~src_port:1 ~dst_port:2 ()
        | _ ->
            let f = Packet.Frame.alloc len in
            for i = 0 to len - 1 do
              Packet.Frame.set_u8 f i (Sim.Rng.int rng 256)
            done;
            f
      in
      let expect =
        let twin = fuzz_classifier () in
        scratch_verdict twin (Router.Classifier.decide twin f)
      in
      let cl = fuzz_classifier () in
      let engine = Sim.Engine.create () in
      let chip = Ixp.Chip.create engine in
      let ctx = Router.Chip_ctx.make chip ~ctx_id:0 in
      let got = ref None in
      Sim.Engine.spawn engine "classify" (fun () ->
          let ok = Router.Classifier.classify cl ctx f in
          got := Some (scratch_verdict cl ok));
      Sim.Engine.run_until_idle engine;
      let cm = Router.Cost_model.default in
      let sram = chip.Ixp.Chip.sram in
      (match (kind, expect) with
      | 0, Some (Some 7, _, Some 1, _) | 1, Some (None, _, None, _) -> true
      | 0, _ | 1, _ -> false
      | _ -> true)
      && !got = Some expect
      && Ixp.Microengine.instructions (Ixp.Chip.context_me chip 0)
         = cm.Router.Cost_model.classify_full_instr
      && Ixp.Hash_unit.uses chip.Ixp.Chip.hash = 2
      && Ixp.Mem.ops_completed sram
         = Ixp.Mem.read_ops sram
             ~bytes:cm.Router.Cost_model.classify_full_sram_bytes)

let fuzz_decoders_total =
  QCheck.Test.make ~name:"RIP/MPLS/flow decoders total on arbitrary bytes"
    ~count:500
    QCheck.(pair int64 (int_range 14 200))
    (fun (seed, len) ->
      let rng = Sim.Rng.create seed in
      let f = Packet.Frame.alloc len in
      for i = 0 to len - 1 do
        Packet.Frame.set_u8 f i (Sim.Rng.int rng 256)
      done;
      ignore (Control.Rip.decode f);
      ignore (Packet.Flow.of_frame f);
      ignore (Packet.Mpls.is_mpls f && Packet.Mpls.payload_is_ipv4 f);
      true)

(* --- spec grammars ------------------------------------------------------- *)

(* Numbers for the spec fields: in-range values, and the edges a float
   parser lets through — NaN, infinities, negative zero, values past
   every range or past 2^62, and empty fields. *)
let spec_numbers =
  [|
    "0"; "1"; "2"; "4"; "0.5"; "0.25"; "64"; "100"; "300"; "1e6";
    "123456789"; "0.3333333333333333"; "nan"; "-nan"; "inf"; "-inf";
    "infinity"; "-0"; "1e300"; "4611686018427387904"; ""; "-1";
  |]

(* One spec of a grammar drawn from its fields and [spec_numbers]. *)
let gen_spec rng =
  let num () = Sim.Rng.pick rng spec_numbers in
  let fields n f = String.concat "" (List.init n (fun _ -> f ())) in
  let list sep n f = String.concat sep (List.init n (fun _ -> f ())) in
  match Sim.Rng.int rng 4 with
  | 0 ->
      let key () =
        Sim.Rng.pick rng
          [|
            "mem_delay"; "mem_delay_cycles"; "mem_drop"; "mac_corrupt";
            "mac_loss"; "mac_burst"; "pool_fail"; "rogue"; "sa_crash";
            "sa_restart_us"; "pe_crash"; "pe_restart_us"; "seed";
          |]
      in
      `Scenario
        (list "," (1 + Sim.Rng.int rng 3) (fun () -> key () ^ ":" ^ num ()))
  | 1 ->
      let event () =
        let kind =
          Sim.Rng.pick rng
            [|
              "link_drop"; "link_corrupt"; "link_stall"; "crash"; "route_churn";
            |]
        in
        let member = Sim.Rng.pick rng [| "0"; "1"; "3"; "-1"; "nan" |] in
        kind ^ ":" ^ member ^ ":" ^ num () ^ ":" ^ num ()
        ^ fields (Sim.Rng.int rng 2) (fun () -> ":" ^ num ())
      in
      `Cluster (list ";" (1 + Sim.Rng.int rng 2) event)
  | 2 ->
      let cap () = Sim.Rng.pick rng [| "1"; "16"; "64"; "0"; "-0"; "" |] in
      let body =
        match Sim.Rng.int rng 5 with
        | 0 -> "none"
        | 1 -> "taildrop:" ^ cap ()
        | 2 ->
            "red:" ^ cap () ^ ":4:12:" ^ num ()
            ^ fields (Sim.Rng.int rng 2) (fun () -> ":" ^ num ())
        | 3 -> "prio:" ^ cap () ^ ":" ^ Sim.Rng.pick rng [| "2"; "4"; "9" |]
        | _ -> "wrr:" ^ cap () ^ ":" ^ list "," (1 + Sim.Rng.int rng 3) cap
      in
      `Fabric (body ^ fields (Sim.Rng.int rng 2) (fun () -> "@" ^ num ()))
  | _ ->
      let key () =
        Sim.Rng.pick rng
          [|
            "pps"; "hosts"; "subnets"; "zipf"; "pareto"; "minpkts"; "maxpkts";
            "conc"; "burst"; "burst_us"; "idle_us"; "frame"; "udp"; "dscp";
          |]
      in
      `Flows
        ("flows:"
        ^ list "," (1 + Sim.Rng.int rng 3) (fun () -> key () ^ "=" ^ num ()))

(* [round_trip parse to_spec norm s]: [parse s] raises nothing, and an
   accepted spec prints with no NaN or infinity and parses back to the
   same value ([norm] drops what [to_spec] leaves out). *)
let round_trip parse to_spec norm s =
  match parse s with
  | Error _ -> true
  | Ok v ->
      let printed = to_spec v in
      let has sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length printed
          && (String.sub printed i n = sub || at (i + 1))
        in
        at 0
      in
      if has "nan" || has "inf" then
        QCheck.Test.fail_reportf "%S accepted as %S" s printed
      else if parse printed <> Ok (norm v) then
        QCheck.Test.fail_reportf "%S printed as %S does not parse back" s
          printed
      else true

let fuzz_spec_grammars =
  QCheck.Test.make ~name:"spec grammars total, round-trip" ~count:2000
    QCheck.int64
    (fun seed ->
      match gen_spec (Sim.Rng.create seed) with
      | `Scenario s ->
          round_trip Fault.Scenario.parse Fault.Scenario.to_spec
            (fun t -> Fault.Scenario.with_seed t 0L)
            s
      | `Cluster s ->
          round_trip Fault.Cluster_scenario.parse
            Fault.Cluster_scenario.to_spec Fun.id s
      | `Fabric s ->
          round_trip Cluster.Fabric_queue.parse Cluster.Fabric_queue.to_spec
            Fun.id s
      | `Flows s ->
          round_trip Workload.Flows.parse Workload.Flows.to_spec Fun.id s)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ fuzz_classifier_never_raises; fuzz_decoders_total; fuzz_spec_grammars ]

(* --- cluster fabric under random link-damage schedules ----------------- *)

(* Build a random (but seed-determined) cluster link-damage spec: 3-5
   overlapping drop/corrupt/stall windows spread over both members. *)
let random_cluster_spec rng =
  let n = 3 + Sim.Rng.int rng 3 in
  let event _ =
    let member = Sim.Rng.int rng 2 in
    let start = 100 + Sim.Rng.int rng 1200 in
    let dur = 200 + Sim.Rng.int rng 700 in
    match Sim.Rng.int rng 3 with
    | 0 ->
        Printf.sprintf "link_drop:%d:%d:%d:0.%d" member start dur
          (1 + Sim.Rng.int rng 7)
    | 1 ->
        Printf.sprintf "link_corrupt:%d:%d:%d:0.%d" member start dur
          (1 + Sim.Rng.int rng 7)
    | _ ->
        Printf.sprintf "link_stall:%d:%d:%d:%d" member start dur
          (10 + Sim.Rng.int rng 50)
  in
  String.concat ";" (List.init n event)

let cluster_link_damage_fuzz () =
  (* Random all-to-all traffic through the fabric while random damage
     windows open and close: whatever the schedule, the cluster-level
     invariants must never fire (damage costs packets, not consistency),
     and traffic must still flow. *)
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let spec = random_cluster_spec rng in
      let faults =
        match Fault.Cluster_scenario.parse spec with
        | Ok s -> Fault.Cluster_scenario.with_seed s seed
        | Error msg -> Alcotest.failf "generated bad spec %S: %s" spec msg
      in
      let c = Cluster.create ~members:2 ~ports_per_member:4 ~faults () in
      for g = 0 to 7 do
        let rng = Sim.Rng.split rng in
        ignore
          (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
             ~name:(Printf.sprintf "fz%d" g)
             ~pps:30_000.
             ~gen:(fun _ ->
               Packet.Build.udp
                 ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
                 ~dst:
                   (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 8)
                      ~host:(1 + Sim.Rng.int rng 50))
                 ~src_port:1000 ~dst_port:2000 ())
             ~offer:(fun f -> Cluster.inject c ~global_port:g f)
             ())
      done;
      for _ = 1 to 6 do
        Cluster.run_for c ~us:400.
      done;
      (match Cluster.violations c with
      | [] -> ()
      | (src, v) :: _ as vs ->
          Alcotest.failf
            "seed %Ld spec %s: %d spurious violation(s), first [%s] %s: %s \
             (repro: router_cli cluster --cluster-faults '%s' --seed %Ld)"
            seed spec (List.length vs) src v.Fault.Invariant.name
            v.Fault.Invariant.detail spec seed);
      let delivered = Cluster.delivered_total c in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld spec %s: traffic still flows (%d)" seed
           spec delivered)
        true (delivered > 100))
    [ 3L; 9L; 77L; 2024L ]

let tests =
  [
    Alcotest.test_case "wire damage survival (seed sweep)" `Slow
      wire_damage_survival;
    Alcotest.test_case "per-port damage kinds" `Slow per_port_damage;
    Alcotest.test_case "cluster fabric under random damage" `Slow
      cluster_link_damage_fuzz;
  ]
  @ qsuite
