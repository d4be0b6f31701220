(* Pins for the MicroEngine loops (Figures 5 and 6) and their context
   placement.  The expected values were recorded before the output
   disciplines O.1-O.3 shared one loop; a refactor of either loop must
   reproduce them exactly, so they are compared as strings ([%.17g] for
   floats), with no tolerance. *)

(* Fixed infrastructure over a short window.  Each row: charging mode
   ([per_burst]), output discipline, output queues (16 gives every output
   context two), all traffic to queue 0 (the I.3 contention case), and the
   circular buffer count (a small pool laps, so stale buffers are
   counted). *)
let fixed_row (per_burst, disc, n_queues, contention, buffer_count) =
  let open Router.Fixed_infra in
  let r =
    run
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
  Printf.sprintf "out_mpps=%.17g stale=%d mutex_waits=%d sram_ops=%.17g"
    r.out_mpps r.stale_bufs r.mutex_waits r.sram_ops_per_pkt

let fixed_cases =
  let open Router.Fixed_infra in
  [
    (false, O1_batch, 8, false, 8192,
     "out_mpps=3.1699999841499999 stale=0 mutex_waits=0 sram_ops=3.7920298879202989");
    (false, O1_batch, 8, true, 256,
     "out_mpps=0.52999999734999992 stale=178 mutex_waits=587 sram_ops=3.607296137339056");
    (false, O1_batch, 16, false, 64,
     "out_mpps=1.9999999900000001 stale=0 mutex_waits=0 sram_ops=3.5");
    (false, O2_single, 8, false, 8192,
     "out_mpps=2.8399999858 stale=0 mutex_waits=0 sram_ops=3.705223880597015");
    (false, O2_single, 8, true, 256,
     "out_mpps=0.42999999784999998 stale=171 mutex_waits=588 sram_ops=3.5503211991434691");
    (false, O2_single, 16, false, 64,
     "out_mpps=1.9999999900000001 stale=0 mutex_waits=0 sram_ops=3.5");
    (false, O3_multi, 8, false, 8192,
     "out_mpps=3.124999984375 stale=0 mutex_waits=0 sram_ops=3.777363184079602");
    (false, O3_multi, 8, true, 256,
     "out_mpps=0.38999999805000002 stale=140 mutex_waits=586 sram_ops=3.4688172043010752");
    (false, O3_multi, 16, false, 64,
     "out_mpps=2.3299999883499996 stale=349 mutex_waits=0 sram_ops=3.9975093399750934");
    (true, O1_batch, 8, false, 8192,
     "out_mpps=3.9599999802000001 stale=0 mutex_waits=0 sram_ops=3.7983870967741935");
    (true, O1_batch, 8, true, 256,
     "out_mpps=0.084999999574999999 stale=421 mutex_waits=0 sram_ops=3.441532258064516");
    (true, O1_batch, 16, false, 64,
     "out_mpps=2.4799999876000003 stale=0 mutex_waits=0 sram_ops=3.504032258064516");
    (true, O2_single, 8, false, 8192,
     "out_mpps=3.9599999802000001 stale=0 mutex_waits=0 sram_ops=3.7983870967741935");
    (true, O2_single, 8, true, 256,
     "out_mpps=0.069999999649999992 stale=383 mutex_waits=0 sram_ops=3.400201612903226");
    (true, O2_single, 16, false, 64,
     "out_mpps=2.4799999876000003 stale=0 mutex_waits=0 sram_ops=3.504032258064516");
    (true, O3_multi, 8, false, 8192,
     "out_mpps=3.5099999824500001 stale=0 mutex_waits=0 sram_ops=3.7076612903225805");
    (true, O3_multi, 8, true, 256,
     "out_mpps=0.059999999700000001 stale=882 mutex_waits=0 sram_ops=3.9312499999999999");
    (true, O3_multi, 16, false, 64,
     "out_mpps=2.3999999879999998 stale=508 mutex_waits=0 sram_ops=3.9536290322580645");
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

(* A router laid out like a cluster member: 8 ports and 2 uplinks share 8
   output contexts, so the two uplinks run O.1 alone and two contexts
   each serve two ports under O.3.  Odd ports send 300-byte frames, so
   transmission crosses MP boundaries and waits on the wire. *)
let member_digests () =
  let config = { Router.default_config with Router.uplink_ports = 2 } in
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
  (Router.delivered_total r, Router.port_delivery_digests r)

let member_pins () =
  let delivered, digests = member_digests () in
  Alcotest.(check int) "delivered" 193 delivered;
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
    Alcotest.test_case "cluster-member delivery digests" `Quick member_pins;
  ]
