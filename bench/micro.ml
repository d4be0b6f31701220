(* Bechamel microbenchmarks of the substrate primitives: how fast the
   host-side data structures run (distinct from the simulated MicroEngine
   cycle costs the tables report). *)

open Bechamel
open Toolkit

let addr = Packet.Ipv4.addr_of_string

let lookup_tests =
  (* An Internet-shaped 10k-prefix table and a hit-heavy address stream. *)
  let rng = Sim.Rng.create 31L in
  let bindings = Iproute.Gen.table ~rng ~n:10_000 ~n_ports:8 in
  let bt =
    List.fold_left
      (fun t (p, v) -> Iproute.Btrie.add t p v)
      Iproute.Btrie.empty bindings
  in
  let cpe = Iproute.Cpe.build bindings in
  let cache = Iproute.Route_cache.create ~slots:1024 () in
  Iproute.Route_cache.insert cache (addr "10.0.0.1") 1;
  (* Pre-draw the address stream so the generator is not what's measured. *)
  let arng = Sim.Rng.create 5L in
  let addrs =
    Array.init 4096 (fun _ -> Iproute.Gen.matching_addr ~rng:arng bindings)
  in
  let cursor = ref 0 in
  let next_addr () =
    cursor := (!cursor + 1) land 4095;
    addrs.(!cursor)
  in
  [
    Test.make ~name:"lpm/btrie-10k"
      (Staged.stage (fun () -> ignore (Iproute.Btrie.lookup bt (next_addr ()))));
    Test.make ~name:"lpm/cpe-10k"
      (Staged.stage (fun () -> ignore (Iproute.Cpe.lookup cpe (next_addr ()))));
    Test.make ~name:"lpm/route-cache-hit"
      (Staged.stage (fun () ->
           ignore (Iproute.Route_cache.find cache (addr "10.0.0.1"))));
  ]

let packet_tests =
  let frame =
    Packet.Build.udp ~frame_len:1518 ~src:(addr "10.0.0.1")
      ~dst:(addr "10.1.0.1") ~src_port:1 ~dst_port:2 ()
  in
  let small =
    Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.1.0.1") ~src_port:1
      ~dst_port:2 ()
  in
  [
    Test.make ~name:"checksum/full-1500B"
      (Staged.stage (fun () ->
           ignore
             (Packet.Checksum.compute frame.Packet.Frame.data ~off:14
                ~len:1500)));
    Test.make ~name:"checksum/incremental-ttl"
      (Staged.stage (fun () ->
           Packet.Ipv4.set_ttl small 64;
           ignore (Packet.Ipv4.decrement_ttl small)));
    Test.make ~name:"flow/of_frame"
      (Staged.stage (fun () -> ignore (Packet.Flow.of_frame small)));
  ]

let router_tests =
  let routes = Iproute.Table.create () in
  Iproute.Table.add routes (Iproute.Prefix.of_string "10.0.0.0/8")
    { Iproute.Table.out_port = 1; gateway_mac = 2 };
  let cl = Router.Classifier.create Router.Cost_model.default ~routes in
  let frame =
    Packet.Build.udp ~src:(addr "10.2.3.4") ~dst:(addr "10.5.6.7") ~src_port:1
      ~dst_port:2 ()
  in
  let q = Router.Squeue.create ~capacity:1024 () in
  let d =
    Router.Desc.make
      ~buf:(Ixp.Buffer_pool.handle_of ~index:0 ~generation:1)
      ~len:64 ~in_port:0 ~out_port:0 ~arrival:0 ()
  in
  let sched = Router.Psched.create () in
  let c1 = Router.Psched.add_client sched ~name:"a" ~share:2.0 in
  let _c2 = Router.Psched.add_client sched ~name:"b" ~share:1.0 in
  [
    Test.make ~name:"classifier/functional"
      (Staged.stage (fun () ->
           ignore (Router.Classifier.classify_functional cl frame)));
    Test.make ~name:"squeue/push-pop"
      (Staged.stage (fun () ->
           ignore (Router.Squeue.push q d);
           ignore (Router.Squeue.pop q)));
    Test.make ~name:"psched/enqueue-next-charge"
      (Staged.stage (fun () ->
           Router.Psched.enqueue sched c1 ();
           match Router.Psched.next sched with
           | Some (c, ()) -> Router.Psched.charge sched c 100.
           | None -> ()));
  ]

let sim_tests =
  [
    Test.make ~name:"sim/spawn-run-1000-events"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           Sim.Engine.spawn e "w" (fun () ->
               for _ = 1 to 1000 do
                 Sim.Engine.wait 5000L
               done);
           Sim.Engine.run_until_idle e));
  ]

let run () =
  Report.section "Microbenchmarks (host-side primitive costs)";
  let tests =
    Test.make_grouped ~name:"npr"
      (lookup_tests @ packet_tests @ router_tests @ sim_tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Report.info "%-32s %12.1f ns/run" name est
      | _ -> Report.info "%-32s (no estimate)" name)
    results
