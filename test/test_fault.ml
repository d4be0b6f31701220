(* The fault-injection plane: scenario parsing, injector determinism,
   per-site wiring at the component level, and a sweep of the scenario
   matrix through the assembled three-level router with the invariant
   registry audited at every barrier.  Every randomized check derives from
   a fixed seed and failure messages carry it, so a red run replays
   exactly. *)

let seed = 42

let some_udp () =
  Packet.Build.udp
    ~src:(Packet.Ipv4.addr_of_string "10.250.0.1")
    ~dst:(Packet.Ipv4.addr_of_string "10.1.0.9")
    ~src_port:1234 ~dst_port:80 ()

let scenario_of spec =
  match Fault.Scenario.parse spec with
  | Ok s -> Fault.Scenario.with_seed s (Int64.of_int seed)
  | Error msg -> Alcotest.failf "bad scenario %S: %s" spec msg

(* --- scenario specs -------------------------------------------------- *)

let scenario_parse () =
  let s = scenario_of "mac_corrupt:0.01,pool_fail:0.005,mac_burst:3" in
  Alcotest.(check bool) "not zero" false (Fault.Scenario.is_zero s);
  Alcotest.(check (float 1e-9)) "rate" 0.01 s.Fault.Scenario.mac_corrupt;
  Alcotest.(check int) "burst" 3 s.Fault.Scenario.mac_burst;
  Alcotest.(check bool) "none is zero" true
    (Fault.Scenario.is_zero (scenario_of "none"));
  Alcotest.(check bool) "empty is zero" true
    (Fault.Scenario.is_zero (scenario_of ""));
  (* Round-trip: to_spec of a parsed spec parses back to the same record
     (modulo seed, which rides outside the spec). *)
  let rich =
    scenario_of
      "mem_delay:0.02,mem_delay_cycles:200,mac_loss:0.1,mac_burst:5,\
       sa_crash:0.001,sa_restart_us:75"
  in
  (match Fault.Scenario.parse (Fault.Scenario.to_spec rich) with
  | Ok again ->
      Alcotest.(check string) "round-trip"
        (Fault.Scenario.to_spec rich)
        (Fault.Scenario.to_spec again)
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg);
  (* Every rejection names the offending key. *)
  let bad spec =
    let key =
      match String.index_opt spec ':' with
      | Some i -> String.sub spec 0 i
      | None -> spec
    in
    let names_key msg =
      let n = String.length key in
      let rec at i =
        i + n <= String.length msg && (String.sub msg i n = key || at (i + 1))
      in
      at 0
    in
    match Fault.Scenario.parse spec with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
    | Error msg ->
        if not (names_key msg) then
          Alcotest.failf "error for %S does not name %S: %s" spec key msg
  in
  bad "mac_corrupt:1.5";
  bad "mac_corrupt:-0.1";
  bad "no_such_fault:0.1";
  bad "mac_corrupt";
  bad "mac_corrupt:abc";
  bad "mac_burst:2.5";
  (* Payload bit flips have no site: memory and FIFO carry no bytes. *)
  List.iter (fun unit_ -> bad (unit_ ^ "_flip:0.1")) [ "fifo"; "mem" ]

(* --- injector -------------------------------------------------------- *)

let injector_deterministic () =
  let mk () =
    Fault.Injector.create (scenario_of "mac_corrupt:0.3,pool_fail:0.1")
  in
  let a = mk () and b = mk () in
  for i = 1 to 500 do
    let fa = Fault.Injector.fires a Fault.Injector.Mac_corrupt in
    let fb = Fault.Injector.fires b Fault.Injector.Mac_corrupt in
    Alcotest.(check bool) (Printf.sprintf "draw %d agrees" i) fa fb
  done;
  Alcotest.(check int) "same totals" (Fault.Injector.total a)
    (Fault.Injector.total b)

let zero_rate_draws_nothing () =
  (* A zero-rate site must not consume randomness: interleaving checks of
     a disabled site leaves an enabled site's decision stream unchanged.
     This is what keeps adding one fault kind from reshuffling another's
     replay. *)
  let a = Fault.Injector.create (scenario_of "mac_corrupt:0.3") in
  let b = Fault.Injector.create (scenario_of "mac_corrupt:0.3") in
  for i = 1 to 300 do
    ignore (Fault.Injector.fires b Fault.Injector.Pool_fail : bool);
    ignore (Fault.Injector.fires b Fault.Injector.Sa_crash : bool);
    let fa = Fault.Injector.fires a Fault.Injector.Mac_corrupt in
    let fb = Fault.Injector.fires b Fault.Injector.Mac_corrupt in
    Alcotest.(check bool) (Printf.sprintf "draw %d unshifted" i) fa fb
  done

let burst_loss () =
  let inj = Fault.Injector.create (scenario_of "mac_loss:1.0,mac_burst:4") in
  for i = 1 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "frame %d lost" i)
      true
      (Fault.Injector.mac_frame_lost inj)
  done;
  Alcotest.(check int) "every loss counted" 8
    (Fault.Injector.count inj Fault.Injector.Mac_loss)

let diff_bytes a b =
  let n = min (Packet.Frame.len a) (Packet.Frame.len b) in
  let d = ref 0 in
  for i = 0 to n - 1 do
    if Packet.Frame.get_u8 a i <> Packet.Frame.get_u8 b i then incr d
  done;
  !d

let frame_mangling () =
  let inj =
    Fault.Injector.create
      (scenario_of "mac_corrupt:1.0,mac_truncate:1.0,mac_garbage:1.0")
  in
  let original = Packet.Frame.alloc 128 in
  for i = 0 to 127 do
    Packet.Frame.set_u8 original i (i land 0xff)
  done;
  let snapshot = Packet.Frame.copy original in
  let corrupted = Fault.Injector.corrupt_frame inj original in
  Alcotest.(check int) "corrupt keeps length" 128 (Packet.Frame.len corrupted);
  let d = diff_bytes original corrupted in
  Alcotest.(check bool)
    (Printf.sprintf "corrupt touches 1..4 bytes (got %d)" d)
    true
    (d >= 1 && d <= 4);
  let truncated = Fault.Injector.truncate_frame inj original in
  Alcotest.(check bool) "truncate shortens" true
    (Packet.Frame.len truncated >= 15 && Packet.Frame.len truncated < 128);
  let garbage = Fault.Injector.garbage_frame inj original in
  Alcotest.(check int) "garbage keeps length" 128 (Packet.Frame.len garbage);
  (* Mangling works on copies: the source's frame is never written. *)
  Alcotest.(check int) "original untouched" 0 (diff_bytes original snapshot);
  Alcotest.(check int) "original length kept" 128 (Packet.Frame.len original)

(* --- per-site component wiring --------------------------------------- *)

let mac_loss_never_enters_port () =
  let e = Sim.Engine.create () in
  let p = Ixp.Mac_port.create e ~id:0 ~mbps:100. ~rx_slots:64 () in
  Ixp.Mac_port.set_faults p (Fault.Injector.create (scenario_of "mac_loss:1.0"));
  for _ = 1 to 5 do
    Alcotest.(check bool) "offer refused" false
      (Ixp.Mac_port.offer p (some_udp ()))
  done;
  Alcotest.(check int) "lost on the wire" 5 (Ixp.Mac_port.rx_lost p);
  Alcotest.(check int) "none accepted" 0 (Ixp.Mac_port.rx_frames p)

let mac_corrupt_copies () =
  let e = Sim.Engine.create () in
  let p = Ixp.Mac_port.create e ~id:0 ~mbps:100. ~rx_slots:64 () in
  Ixp.Mac_port.set_faults p
    (Fault.Injector.create (scenario_of "mac_corrupt:1.0"));
  let f = some_udp () in
  let snapshot = Packet.Frame.copy f in
  Alcotest.(check bool) "offer accepted" true (Ixp.Mac_port.offer p f);
  let meta = Array.make 4 0 and frames = Array.make 4 f in
  Alcotest.(check bool) "MPs after accepted offer" true
    (Ixp.Mac_port.take_burst p ~meta ~frames ~max:4 > 0);
  Alcotest.(check bool) "rx frame is a damaged copy" true
    (frames.(0) != f && diff_bytes frames.(0) snapshot > 0);
  Alcotest.(check int) "source frame untouched" 0 (diff_bytes f snapshot)

let pool_fail_raises_cleanly () =
  let pool = Ixp.Buffer_pool.create_stack ~count:8 () in
  Ixp.Buffer_pool.set_faults pool
    (Fault.Injector.create (scenario_of "pool_fail:1.0"));
  (match Ixp.Buffer_pool.alloc pool (some_udp ()) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected injected allocation failure");
  (* A refused allocation must not damage the pool's accounting. *)
  Alcotest.(check (option string)) "pool still consistent" None
    (Ixp.Buffer_pool.check pool);
  Alcotest.(check int) "nothing leaked" 0 (Ixp.Buffer_pool.in_use pool)

(* --- invariant registry ---------------------------------------------- *)

let invariant_registry () =
  let now = ref 0L in
  let reg = Fault.Invariant.create ~clock:(fun () -> !now) () in
  let healthy = ref true in
  Fault.Invariant.register reg "demo" (fun () ->
      if !healthy then None else Some "broke");
  Alcotest.(check int) "clean barrier" 0 (Fault.Invariant.check reg);
  Alcotest.(check bool) "ok" true (Fault.Invariant.ok reg);
  healthy := false;
  now := 77L;
  Alcotest.(check int) "one new violation" 1 (Fault.Invariant.check reg);
  Alcotest.(check bool) "not ok" false (Fault.Invariant.ok reg);
  (match Fault.Invariant.violations reg with
  | [ v ] ->
      Alcotest.(check string) "name" "demo" v.Fault.Invariant.name;
      Alcotest.(check string) "detail" "broke" v.Fault.Invariant.detail;
      Alcotest.(check int64) "stamped" 77L v.Fault.Invariant.at
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  Alcotest.(check int) "barriers counted" 2 (Fault.Invariant.checks reg)

(* --- full-router scenario matrix ------------------------------------- *)

(* A slice of traffic belongs to a Pentium-bound flow so the crash site at
   the top of the hierarchy actually executes (otherwise the host blocks
   on an empty I2O queue forever). *)
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

type run = {
  injected : int;
  violations : Fault.Invariant.violation list;
  delivered : int;
  counts : (string * int) list;
  digests : string array;
}

let drive ?(unbatched = false) ?(with_digest = false) spec =
  let config =
    { Router.default_config with Router.faults = scenario_of spec }
  in
  let r = Router.create ~config () in
  if with_digest then Router.enable_delivery_digest r;
  (* The unbatched arm runs fully event-granular: every wait is a real
     scheduler event, no activation coalescing.  Everything else —
     including the per-batch cost accounting — is identical, which is
     exactly the equivalence the relaxed gate asserts. *)
  if unbatched then Sim.Engine.set_coalescing r.Router.engine false;
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
  | Error es -> Alcotest.failf "PE admission: %s" (String.concat ";" es));
  Router.start r;
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for p = 0 to config.Router.n_ports - 1 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~mbps:config.Router.port_mbps ~frame_len:64
         ~gen:
           (Workload.Mix.udp_uniform ~rng ~n_subnets:config.Router.n_ports
              ~frame_len:64 ())
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
  (* Two barriers: invariants must hold mid-flight, not only at drain. *)
  Router.run_for r ~us:400.;
  Router.run_for r ~us:400.;
  {
    injected =
      (match r.Router.injector with
      | None -> 0
      | Some inj -> Fault.Injector.total inj);
    violations = Fault.Invariant.violations r.Router.invariants;
    delivered = Router.delivered_total r;
    counts =
      (match r.Router.injector with
      | None -> []
      | Some inj -> Fault.Injector.counts inj);
    digests = (if with_digest then Router.port_delivery_digests r else [||]);
  }

let matrix =
  [
    "none";
    "mac_corrupt:0.05";
    "mac_truncate:0.05";
    "mac_garbage:0.05";
    "mac_loss:0.05,mac_burst:3";
    "mem_delay:0.05,mem_delay_cycles:300";
    "mem_drop:0.02";
    "pool_fail:0.02";
    "vrp_overrun:0.02";
    "rogue:0.02";
    "sa_crash:0.02,sa_restart_us:30";
    "pe_crash:0.2,pe_restart_us:30";
    "mac_corrupt:0.02,mac_loss:0.02,mem_delay:0.02,pool_fail:0.01,\
     vrp_overrun:0.01,rogue:0.01,sa_crash:0.005,pe_crash:0.05";
  ]

let scenario_matrix () =
  List.iter
    (fun spec ->
      let o = drive spec in
      (match o.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf
            "scenario %S seed %d: %d invariant violation(s), first: %s: %s \
             (repro: router_cli run --faults '%s' --seed %d -d 2)"
            spec seed
            (List.length o.violations)
            v.Fault.Invariant.name v.Fault.Invariant.detail spec seed);
      if spec <> "none" && o.injected = 0 then
        Alcotest.failf "scenario %S seed %d injected no faults" spec seed;
      if spec = "none" && o.injected <> 0 then
        Alcotest.failf "baseline injected %d faults" o.injected;
      Alcotest.(check bool)
        (Printf.sprintf "scenario %S still forwards" spec)
        true (o.delivered > 0))
    matrix

(* The batching gate, on the full fault matrix: a batched run and a fully
   event-granular run must produce bit-identical per-port delivery
   schedules — every (time, frame-bytes) pair, in order, on every port.
   Faults exercise the paths where batches split (MAC rx loss, memory
   injector commits, pool failures, crashes). *)
let batched_unbatched_digests_agree () =
  List.iter
    (fun spec ->
      let a = drive ~with_digest:true spec in
      let b = drive ~with_digest:true ~unbatched:true spec in
      Alcotest.(check int)
        (Printf.sprintf "scenario %S: same delivery count" spec)
        a.delivered b.delivered;
      Alcotest.(check (array string))
        (Printf.sprintf "scenario %S: per-port schedules identical" spec)
        a.digests b.digests)
    matrix

let replay_identical () =
  (* The tentpole property: same spec + same seed = bit-for-bit the same
     run, down to every per-site injection count. *)
  let spec = "mac_corrupt:0.05,mem_delay:0.02,sa_crash:0.01" in
  let a = drive spec and b = drive spec in
  Alcotest.(check int) "same total injected" a.injected b.injected;
  Alcotest.(check int) "same delivered" a.delivered b.delivered;
  Alcotest.(check (list (pair string int))) "same per-site counts" a.counts
    b.counts

let zero_fault_matches_no_config () =
  (* A zero scenario must be indistinguishable from not mentioning faults
     at all: same deliveries, no injector allocated. *)
  let explicit = drive "none" in
  let r = Router.create () in
  Alcotest.(check bool) "no injector when zero" true (r.Router.injector = None);
  let implicit =
    let r = Router.create () in
    for p = 0 to r.Router.config.Router.n_ports - 1 do
      Router.add_route r
        (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
        ~port:p
    done;
    (match
       Router.Iface.install r.Router.iface ~key:(Packet.Flow.Tuple pe_flow)
         ~fwdr:pe_null ~where:Router.Iface.PE ~expected_pps:20_000. ()
     with
    | Ok _ -> ()
    | Error es -> Alcotest.failf "PE admission: %s" (String.concat ";" es));
    Router.start r;
    let rng = Sim.Rng.create (Int64.of_int seed) in
    for p = 0 to r.Router.config.Router.n_ports - 1 do
      let rng = Sim.Rng.split rng in
      ignore
        (Workload.Source.spawn_line_rate r.Router.engine
           ~name:(Printf.sprintf "gen%d" p)
           ~mbps:r.Router.config.Router.port_mbps ~frame_len:64
           ~gen:
             (Workload.Mix.udp_uniform ~rng
                ~n_subnets:r.Router.config.Router.n_ports ~frame_len:64 ())
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
    Router.run_for r ~us:400.;
    Router.run_for r ~us:400.;
    Router.delivered_total r
  in
  Alcotest.(check int) "delivery identical with hooks disabled"
    implicit explicit.delivered

(* --- WFQ fairness under a stalled class ------------------------------ *)

let wfq_fairness_under_stalled_class () =
  (* Three classes with shares 2:1:1 congest one 100 Mbps output port.
     Class 2's input port loses every frame on the wire (mac_loss:1.0
     injected on that port alone).  The fairness invariant: a stalled
     class neither receives service nor distorts the survivors' split —
     classes 0 and 1 keep dividing the link close to their 2:1 shares. *)
  let addr = Packet.Ipv4.addr_of_string in
  let line_pps = Workload.Source.line_rate_pps ~mbps:100. ~frame_len:64 in
  let engine = Sim.Engine.create () in
  let chip =
    Ixp.Chip.create
      ~ports:(List.init 4 (fun _ -> { Ixp.Chip.mbps = 100.; sink = None }))
      engine
  in
  let cm = Router.Cost_model.default in
  let out_port = chip.Ixp.Chip.ports.(3) in
  let queues =
    [| Router.Squeue.create ~name:"high" ~capacity:512 ();
       Router.Squeue.create ~name:"low" ~capacity:512 () |]
  in
  let wfq = Router.Wfq.create ~link_pps:line_pps ~shares:[| 2.; 1.; 1. |] () in
  let delivered = [| 0; 0; 0 |] in
  Ixp.Mac_port.set_faults chip.Ixp.Chip.ports.(2)
    (Fault.Injector.create (scenario_of "mac_loss:1.0"));
  let ring = Sim.Token_ring.create ~members:3 engine in
  let frame_of cls =
    Packet.Build.udp
      ~src:(addr (Printf.sprintf "10.250.0.%d" (1 + cls)))
      ~dst:(addr "10.0.0.1") ~src_port:(1000 + cls) ~dst_port:2000 ()
  in
  let mk_process cls ctx _frm ~in_port =
    ignore in_port;
    Router.Chip_ctx.exec ctx cm.Router.Cost_model.classify_null_instr;
    Router.Chip_ctx.hash_charge ctx;
    Router.Chip_ctx.sram_read ctx ~bytes:8;
    Router.Vrp.execute ctx Router.Wfq.vrp_code;
    let qid =
      match Router.Wfq.pick wfq ~class_id:cls ~now:(Sim.Engine.time engine) with
      | `High -> 0
      | `Low -> 1
    in
    Router.Input_loop.To_queue { qid; out_port = cls; fid = -1 }
  in
  List.iteri
    (fun cls ctx_id ->
      let t =
        {
          Router.Input_loop.cm;
          enq = Router.Input_loop.Protected;
          process = mk_process cls;
          queue_of = (fun qid -> queues.(qid));
          notify = None;
          scope = None;
          recycle = None;
        }
      in
      let in_port = chip.Ixp.Chip.ports.(cls) in
      ignore
        (Workload.Source.spawn_constant engine
           ~name:(Printf.sprintf "class%d" cls)
           ~pps:line_pps
           ~gen:(fun _ -> frame_of cls)
           ~offer:(fun f -> Ixp.Mac_port.offer in_port f)
           ());
      Router.Input_loop.spawn_context t chip ~ring ~slot:cls ~ctx_id
        ~source:(Router.Input_loop.Port in_port)
        ~stats:(Router.Input_loop.make_stats ()))
    [ 0; 4; 8 ];
  let oring = Sim.Token_ring.create ~members:1 engine in
  let ol =
    {
      Router.Output_loop.cm;
      discipline = Router.Output_loop.O3_multi;
      queues;
      port_for = (fun _ -> Some out_port);
      on_tx =
        (fun desc _ ->
          let cls = desc.Router.Desc.out_port in
          delivered.(cls) <- delivered.(cls) + 1);
      scope = None;
    }
  in
  Router.Output_loop.spawn_context ol chip ~ring:oring ~slot:0 ~ctx_id:12
    ~stats:(Router.Output_loop.make_stats ());
  Sim.Engine.run engine ~until:(Sim.Engine.of_seconds 40e-3);
  Alcotest.(check int) "stalled class receives nothing" 0 delivered.(2);
  Alcotest.(check bool)
    (Printf.sprintf "survivors keep forwarding (%d + %d)" delivered.(0)
       delivered.(1))
    true
    (delivered.(0) + delivered.(1) > 2000);
  let ratio = float_of_int delivered.(0) /. float_of_int (max 1 delivered.(1)) in
  Alcotest.(check bool)
    (Printf.sprintf "2:1 shares respected within bound (ratio %.2f)" ratio)
    true
    (ratio >= 1.5 && ratio <= 3.0)

let tests =
  [
    Alcotest.test_case "scenario parse + round-trip" `Quick scenario_parse;
    Alcotest.test_case "injector deterministic" `Quick injector_deterministic;
    Alcotest.test_case "zero-rate site draws nothing" `Quick
      zero_rate_draws_nothing;
    Alcotest.test_case "burst loss" `Quick burst_loss;
    Alcotest.test_case "frame mangling on copies" `Quick frame_mangling;
    Alcotest.test_case "mac loss never enters port" `Quick
      mac_loss_never_enters_port;
    Alcotest.test_case "mac corruption copies" `Quick mac_corrupt_copies;
    Alcotest.test_case "pool failure is clean" `Quick pool_fail_raises_cleanly;
    Alcotest.test_case "invariant registry" `Quick invariant_registry;
    Alcotest.test_case "scenario matrix holds invariants" `Slow
      scenario_matrix;
    Alcotest.test_case "batched = unbatched delivery schedules (fault matrix)"
      `Slow batched_unbatched_digests_agree;
    Alcotest.test_case "seeded replay identical" `Slow replay_identical;
    Alcotest.test_case "zero faults match unconfigured router" `Slow
      zero_fault_matches_no_config;
    Alcotest.test_case "wfq fairness under stalled class" `Slow
      wfq_fairness_under_stalled_class;
  ]
