(* Pins for the MicroEngine loops (Figures 5 and 6) and their context
   placement.  The expected values were recorded before the output
   disciplines O.1-O.3 shared one loop, and the engine counters before
   the contexts became engine-stepped state machines; a refactor of
   either loop or of the engine must reproduce them exactly, so they
   are compared as strings ([%.17g] for floats), with no tolerance.

   The counters cover both ways a context is driven: the fixed
   infrastructure's classic rows charge per operation and the
   fault-armed member's memory channels wait per unit, so their
   contexts run as fibers; every other row runs on engine callbacks. *)

(* The engine's exact counters: scheduled events, waits elided outside
   and absorbed inside batch spans, and completed batch spans. *)
let counters e =
  Printf.sprintf "events=%d elided=%d absorbed=%d batched=%d"
    (Sim.Engine.events_scheduled e)
    (Sim.Engine.elided_waits e)
    (Sim.Engine.absorbed_waits e)
    (Sim.Engine.batched_activations e)

(* Fixed infrastructure over a short window.  Each row: charging mode
   ([per_burst]), output discipline, output queues (16 gives every output
   context two, which only O.3 serves), all traffic to queue 0 (the I.3
   contention case), and the circular buffer count (a small pool laps, so
   stale buffers are counted). *)
let fixed_row (per_burst, disc, n_queues, contention, buffer_count) =
  let open Router.Fixed_infra in
  let engine = Sim.Engine.create () in
  let r =
    run_on engine
      {
        default with
        cm = { default.cm with Router.Cost_model.per_burst };
        hw = { default.hw with Ixp.Config.buffer_count };
        output_disc = disc;
        n_queues;
        contention;
        warmup_us = 50.;
        measure_us = 200.;
      }
  in
  Printf.sprintf "out_mpps=%.17g stale=%d mutex_waits=%d sram_ops=%.17g %s"
    r.out_mpps r.stale_bufs r.mutex_waits r.sram_ops_per_pkt (counters engine)

let fixed_cases =
  let open Router.Fixed_infra in
  [
    (false, O1_batch, 8, false, 8192,
     "out_mpps=3.1699999841499999 stale=0 mutex_waits=0 sram_ops=3.7920298879202989 events=21517 elided=903 absorbed=0 batched=1774");
    (false, O1_batch, 8, true, 256,
     "out_mpps=0.52999999734999992 stale=178 mutex_waits=587 sram_ops=3.607296137339056 events=9496 elided=1357 absorbed=0 batched=722");
    (false, O2_single, 8, false, 8192,
     "out_mpps=2.8399999858 stale=0 mutex_waits=0 sram_ops=3.705223880597015 events=21440 elided=969 absorbed=0 batched=1698");
    (false, O2_single, 8, true, 256,
     "out_mpps=0.42999999784999998 stale=171 mutex_waits=588 sram_ops=3.5503211991434691 events=9353 elided=1648 absorbed=0 batched=700");
    (false, O3_multi, 8, false, 8192,
     "out_mpps=3.124999984375 stale=0 mutex_waits=0 sram_ops=3.777363184079602 events=23840 elided=769 absorbed=0 batched=1768");
    (false, O3_multi, 8, true, 256,
     "out_mpps=0.38999999805000002 stale=140 mutex_waits=586 sram_ops=3.4688172043010752 events=9942 elided=1343 absorbed=0 batched=687");
    (false, O3_multi, 16, false, 64,
     "out_mpps=2.3299999883499996 stale=349 mutex_waits=0 sram_ops=3.9975093399750934 events=24072 elided=716 absorbed=0 batched=1602");
    (true, O1_batch, 8, false, 8192,
     "out_mpps=3.9599999802000001 stale=0 mutex_waits=0 sram_ops=3.7983870967741935 events=4257 elided=340 absorbed=0 batched=1296");
    (true, O1_batch, 8, true, 256,
     "out_mpps=0.084999999574999999 stale=421 mutex_waits=0 sram_ops=3.441532258064516 events=3238 elided=317 absorbed=0 batched=1239");
    (true, O2_single, 8, false, 8192,
     "out_mpps=3.9599999802000001 stale=0 mutex_waits=0 sram_ops=3.7983870967741935 events=4257 elided=340 absorbed=0 batched=1296");
    (true, O2_single, 8, true, 256,
     "out_mpps=0.069999999649999992 stale=383 mutex_waits=0 sram_ops=3.400201612903226 events=3229 elided=318 absorbed=0 batched=1239");
    (true, O3_multi, 8, false, 8192,
     "out_mpps=3.5099999824500001 stale=0 mutex_waits=0 sram_ops=3.7076612903225805 events=4125 elided=334 absorbed=0 batched=1286");
    (true, O3_multi, 8, true, 256,
     "out_mpps=0.059999999700000001 stale=882 mutex_waits=0 sram_ops=3.9312499999999999 events=3121 elided=321 absorbed=0 batched=1207");
    (true, O3_multi, 16, false, 64,
     "out_mpps=2.3999999879999998 stale=508 mutex_waits=0 sram_ops=3.9536290322580645 events=3874 elided=324 absorbed=0 batched=1272");
  ]

let fixed_pins () =
  List.iter
    (fun (per_burst, disc, n_queues, contention, buffers, expected) ->
      let name =
        Printf.sprintf "%s per_burst=%b queues=%d contention=%b buffers=%d"
          (match disc with
          | Router.Fixed_infra.O1_batch -> "O.1"
          | O2_single -> "O.2"
          | O3_multi -> "O.3")
          per_burst n_queues contention buffers
      in
      Alcotest.(check string) name expected
        (fixed_row (per_burst, disc, n_queues, contention, buffers)))
    fixed_cases

(* An O.1 or O.2 context serves one queue, so a configuration that would
   deal it two is refused before anything runs. *)
let single_queue_disciplines_checked () =
  List.iter
    (fun (disc, name) ->
      match
        Router.Fixed_infra.run
          {
            Router.Fixed_infra.default with
            output_disc = disc;
            n_queues = 16;
          }
      with
      | _ -> Alcotest.failf "%s with two queues per context accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (name ^ " names the discipline and both counts")
            (Printf.sprintf
               "Fixed_infra.run: %s serves one queue per output context, \
                but n_queues = 16 exceeds n_output_contexts = 8"
               name)
            msg)
    [ (Router.Fixed_infra.O1_batch, "O.1"); (O2_single, "O.2") ]

(* A router laid out like a cluster member: 8 ports and 2 uplinks share 8
   output contexts, so the two uplinks run O.1 alone and two contexts
   each serve two ports under O.3.  Odd ports send 300-byte frames, so
   transmission crosses MP boundaries and waits on the wire.  [faults]
   arms the router's fault plane. *)
let member_digests faults =
  let config =
    { Router.default_config with Router.uplink_ports = 2; faults }
  in
  let r = Router.create ~config () in
  Router.enable_delivery_digest r;
  let n_all = config.Router.n_ports + config.Router.uplink_ports in
  for p = 0 to n_all - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  Router.start r;
  let rng = Sim.Rng.create 42L in
  for p = 0 to config.Router.n_ports - 1 do
    let rng = Sim.Rng.split rng in
    let frame_len = if p land 1 = 0 then 64 else 300 in
    ignore
      (Workload.Source.spawn_line_rate r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~mbps:config.Router.port_mbps ~frame_len
         ~gen:(Workload.Mix.udp_uniform ~rng ~n_subnets:n_all ~frame_len ())
         ~offer:(fun f -> Router.inject r ~port:p f)
         ())
  done;
  Router.run_for r ~us:400.;
  ( Router.delivered_total r,
    Router.port_delivery_digests r,
    counters r.Router.engine )

let member_pins () =
  let delivered, digests, engine = member_digests Fault.Scenario.zero in
  Alcotest.(check int) "delivered" 193 delivered;
  Alcotest.(check string)
    "engine counters" "events=3478 elided=1493 absorbed=1 batched=416"
    engine;
  Alcotest.(check (array string))
    "per-port digests"
    [|
      "2a77b00cb1f2352d7863a8f7095535d9";
      "f2b677cb164f9601684f370f1e1e07fb";
      "d516776402bbef80a155a48c44cc5fa6";
      "88cbc8335077f063dd591e47d28f18f1";
      "c0bfe6f3c04e3c6009dcab7faf2b11e1";
      "da1adc57bbc852cf3aeff3a7542042ee";
      "ab1bcbc1bc701a8c4e49e2a11ad4ca4c";
      "3d7231289670bc04d3e612c9757859a9";
      "1a4331bb394f0ebb034ed5f9564a7853";
      "d44cf66b8c2bdb61a1e293e2b14e892c";
    |]
    digests

(* The same member with its memory channels fault-armed: every memory
   operation draws from the injector and waits on its own, so the
   contexts charge inside a step and run as fibers. *)
let faulty_member_pins () =
  let faults =
    match Fault.Scenario.parse "mem_delay:0.02,mem_drop:0.001" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let delivered, digests, engine = member_digests faults in
  Alcotest.(check int) "delivered" 165 delivered;
  Alcotest.(check string)
    "engine counters" "events=11144 elided=1098 absorbed=14 batched=405"
    engine;
  Alcotest.(check (array string))
    "per-port digests"
    [|
      "cda269e6bf49135341845b0a4581ae4f";
      "7607f2fb08d8e5f7f8c76a1fff322509";
      "ae76256f7f0980cba2dfa54c018adbef";
      "8c640b0a186d6d2beb912b71f2ff677f";
      "39ecfd7d8f3dc26ef539a08861d38f4e";
      "da25672a448a449c6eb61cf224459b65";
      "ae93aaa864a5f43e3f47524f9c1616f6";
      "5df7aad7e6d38cbdeb9fdafd57329292";
      "e97be47b6d2404a11b424db272b00275";
      "87dc72fd70feac66597b107bde07572e";
    |]
    digests

(* Context placement: a stage fills the fewest MicroEngines from its
   first one on, round-robin, so consecutive token holders sit on
   different engines. *)
let placement () =
  let ids, mes = Ixp.Config.place Ixp.Config.default ~first_me:4 8 in
  Alcotest.(check (array int))
    "8 output contexts after 4 input engines"
    [| 16; 20; 17; 21; 18; 22; 19; 23 |]
    ids;
  Alcotest.(check int) "engines used" 2 mes;
  let ids, mes = Ixp.Config.place Ixp.Config.default ~first_me:0 6 in
  Alcotest.(check (array int)) "6 contexts" [| 0; 4; 1; 5; 2; 6 |] ids;
  Alcotest.(check int) "engines used" 2 mes

(* A split the chip cannot host is refused when the router is built, not
   by an array bound when it starts. *)
let split_checked () =
  let config = { Router.default_config with Router.n_input_contexts = 20 } in
  (match Router.create ~config () with
  | _ -> Alcotest.fail "20 input + 8 output contexts accepted on 6 engines"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "names both counts and the chip"
        "Router.create: 20 input and 8 output contexts need 5 + 2 \
         MicroEngines; the chip has 6 x 4 contexts"
        msg);
  (* 20 + 4 fills the same six engines exactly, and starts. *)
  let r =
    Router.create
      ~config:{ config with Router.n_output_contexts = 4 }
      ()
  in
  Router.start r;
  Router.run_for r ~us:10.

let tests =
  [
    Alcotest.test_case "context placement" `Quick placement;
    Alcotest.test_case "context split checked at create" `Quick split_checked;
    Alcotest.test_case "fixed infrastructure O.1-O.3 pins" `Quick fixed_pins;
    Alcotest.test_case "O.1/O.2 with several queues per context rejected"
      `Quick single_queue_disciplines_checked;
    Alcotest.test_case "cluster-member delivery digests" `Quick member_pins;
    Alcotest.test_case "fault-armed member delivery digests" `Quick
      faulty_member_pins;
  ]
