(* Batch edge cases for the per-batch activation hot path: capacity-1
   identity, partial final batches at source exhaustion, batch splits
   across fabric-queue backpressure, bursts interleaved with fault-
   injected MAC receive drops, the forwarder batch shim, and the FIFO
   burst transfers.  The equivalence axis throughout is the relaxed
   gate's: a batched (activation-coalescing) run and a fully
   event-granular run must produce bit-identical per-port delivery
   schedules. *)

let seed = 42

let scenario_of spec =
  match Fault.Scenario.parse spec with
  | Ok s -> Fault.Scenario.with_seed s (Int64.of_int seed)
  | Error msg -> Alcotest.failf "bad scenario %S: %s" spec msg

(* Drive a single router at line rate and return (delivered, per-port
   delivery digests). *)
let drive ?(batch_mps = 16) ?(unbatched = false) ?(faults = "none")
    ?(us = 400.) () =
  let config =
    {
      Router.default_config with
      Router.batch_mps;
      faults = scenario_of faults;
    }
  in
  let r = Router.create ~config () in
  Router.enable_delivery_digest r;
  if unbatched then Sim.Engine.set_coalescing r.Router.engine false;
  for p = 0 to config.Router.n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
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
  Router.run_for r ~us;
  (Router.delivered_total r, Router.port_delivery_digests r)

let check_arms_agree name a b =
  let da, ga = a and db, gb = b in
  Alcotest.(check int) (name ^ ": same delivery count") da db;
  Alcotest.(check (array string)) (name ^ ": identical schedules") ga gb

(* Capacity 1 degenerates the batched loop to one MP per activation; the
   coalescing arms must still agree bit for bit, i.e. the batching
   machinery at its smallest grain is invisible to delivered traffic. *)
let capacity_one_identity () =
  check_arms_agree "batch_mps=1"
    (drive ~batch_mps:1 ())
    (drive ~batch_mps:1 ~unbatched:true ());
  (* And capacity 1 forwards the same packets as capacity 16 — timing
     shifts (the serial section amortizes differently) but nothing is
     lost or misrouted. *)
  let d1, _ = drive ~batch_mps:1 () and d16, _ = drive () in
  Alcotest.(check bool)
    (Printf.sprintf "both capacities forward (%d vs %d)" d1 d16)
    true
    (d1 > 0 && d16 > 0)

(* A finite offered load whose size is not a multiple of the batch
   capacity: the final partial batch must be processed, not held waiting
   for a full burst, and every frame must come out.  37 = 2 full
   16-bursts + a 5-MP tail per port. *)
let partial_final_batch () =
  let run ~unbatched =
    let r = Router.create () in
    Router.enable_delivery_digest r;
    if unbatched then Sim.Engine.set_coalescing r.Router.engine false;
    let n_ports = r.Router.config.Router.n_ports in
    for p = 0 to n_ports - 1 do
      Router.add_route r
        (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
        ~port:p
    done;
    Router.start r;
    let offered = ref 0 in
    for p = 0 to n_ports - 1 do
      for i = 0 to 36 do
        let f =
          Packet.Build.udp
            ~src:(Packet.Ipv4.addr_of_string "10.250.0.1")
            ~dst:
              (Packet.Ipv4.addr_of_string
                 (Printf.sprintf "10.%d.0.%d" ((p + 1) mod n_ports) (1 + i)))
            ~src_port:1000 ~dst_port:2000 ()
        in
        if Router.inject r ~port:p f then incr offered
      done
    done;
    Router.run_for r ~us:2000.;
    (!offered, Router.delivered_total r, Router.port_delivery_digests r)
  in
  let oa, da, ga = run ~unbatched:false in
  let ob, db, gb = run ~unbatched:true in
  Alcotest.(check int) "all offered frames accepted" (8 * 37) oa;
  Alcotest.(check int) "every frame delivered (no stuck tail)" oa da;
  Alcotest.(check int) "arms offered alike" oa ob;
  Alcotest.(check int) "arms delivered alike" da db;
  Alcotest.(check (array string)) "identical schedules" ga gb

(* Fault-injected MAC receive loss interleaved with burst refills: the
   batch fill skips lost frames without stalling, and the arms agree. *)
let mac_rx_drops_in_batches () =
  let spec = "mac_loss:0.2,mac_burst:3" in
  let a = drive ~faults:spec () in
  let b = drive ~faults:spec ~unbatched:true () in
  check_arms_agree "mac loss" a b;
  let d, _ = a in
  Alcotest.(check bool) "still forwards through loss" true (d > 0)

(* Port-level burst semantics under loss: offers refused by the injector
   never enter the rx ring, and a burst drain returns exactly the
   accepted frames with coherent head tags. *)
let take_burst_skips_lost () =
  let e = Sim.Engine.create () in
  let p = Ixp.Mac_port.create e ~id:0 ~mbps:100. ~rx_slots:64 () in
  Ixp.Mac_port.set_faults p
    (Fault.Injector.create (scenario_of "mac_loss:0.5"));
  let accepted = ref 0 in
  for _ = 1 to 40 do
    if
      Ixp.Mac_port.offer p
        (Packet.Build.udp
           ~src:(Packet.Ipv4.addr_of_string "10.250.0.1")
           ~dst:(Packet.Ipv4.addr_of_string "10.1.0.9")
           ~src_port:1234 ~dst_port:80 ())
    then incr accepted
  done;
  Alcotest.(check bool) "some frames lost" true (Ixp.Mac_port.rx_lost p > 0);
  Alcotest.(check bool) "some frames accepted" true (!accepted > 0);
  let meta = Array.make 16 0 in
  let frames = Array.make 16 (Packet.Frame.alloc 0) in
  let drained = ref 0 in
  let rec drain () =
    let n = Ixp.Mac_port.take_burst p ~meta ~frames ~max:16 in
    if n > 0 then begin
      for i = 0 to n - 1 do
        (match Ixp.Mac_port.tag_of_meta meta.(i) with
        | Packet.Mp.Only | Packet.Mp.First ->
            Alcotest.(check int)
              (Printf.sprintf "head MP %d has index 0" !drained)
              0
              (Ixp.Mac_port.index_of_meta meta.(i))
        | _ -> ());
        incr drained
      done;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "burst drain returns exactly the accepted MPs"
    !accepted !drained

(* Cluster members exchange traffic through a finite RED fabric queue
   whose refusals split batches mid-flight; the arms must still agree on
   every member's per-port delivery schedule, at every domain count the
   acceptance gate names. *)
let cluster_arms ?faults ?fabric_queue ~domains ~unbatched () =
  let c =
    Cluster.create ~members:4 ~ports_per_member:4 ~domains ~frame_pool:true
      ?faults ?fabric_queue ()
  in
  Array.iter Router.enable_delivery_digest c.Cluster.members;
  if unbatched then
    Array.iter (fun e -> Sim.Engine.set_coalescing e false) c.Cluster.engines;
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for g = 0 to 15 do
    let m, _ = Cluster.member_of_global_port c g in
    let pool = Option.get (Cluster.frame_pool c m) in
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~mbps:100. ~frame_len:64
         ~gen:
           (Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:16 ~frame_len:64 ())
         ~offer:(fun f ->
           let ok = Cluster.inject c ~global_port:g f in
           if not ok then Packet.Frame_pool.give pool f;
           ok)
         ())
  done;
  for _ = 1 to 2 do
    Cluster.run_for c ~us:500.
  done;
  (match Cluster.violations c with
  | [] -> ()
  | (src, v) :: _ ->
      Alcotest.failf "domains=%d: violation [%s] %s: %s" domains src
        v.Fault.Invariant.name v.Fault.Invariant.detail);
  Array.to_list
    (Array.map
       (fun m -> Array.to_list (Router.port_delivery_digests m))
       c.Cluster.members)

let backpressure_batch_split () =
  let fabric_queue =
    match Cluster.Fabric_queue.parse "red:16:4:12:0.4@200" with
    | Ok c -> c
    | Error m -> Alcotest.failf "bad queue spec: %s" m
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list (list string)))
        (Printf.sprintf "domains=%d: arms agree under backpressure" domains)
        (cluster_arms ~domains ~unbatched:false ~fabric_queue ())
        (cluster_arms ~domains ~unbatched:true ~fabric_queue ()))
    [ 1; 2; 4 ]

(* The acceptance gate verbatim: identical per-port delivery schedules
   between the batched and event-granular arms across the entire
   cluster fault matrix at domains {1, 2, 4}. *)
let fault_matrix_all_domains () =
  List.iter
    (fun (spec, what) ->
      let faults =
        match Fault.Cluster_scenario.parse spec with
        | Ok s -> Fault.Cluster_scenario.with_seed s (Int64.of_int seed)
        | Error m -> Alcotest.failf "bad cluster scenario %S: %s" spec m
      in
      List.iter
        (fun domains ->
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%s (%s) domains=%d: arms agree" spec what
               domains)
            (cluster_arms ~faults ~domains ~unbatched:false ())
            (cluster_arms ~faults ~domains ~unbatched:true ()))
        [ 1; 2; 4 ])
    Fault.Cluster_scenario.matrix

let tests =
  [
    Alcotest.test_case "capacity-1 identity" `Slow capacity_one_identity;
    Alcotest.test_case "partial final batch at exhaustion" `Slow
      partial_final_batch;
    Alcotest.test_case "mac rx drops inside batches" `Slow
      mac_rx_drops_in_batches;
    Alcotest.test_case "take_burst skips injected loss" `Quick
      take_burst_skips_lost;
    Alcotest.test_case "backpressure splits batches, arms agree (domains \
                        1/2/4)" `Slow backpressure_batch_split;
    Alcotest.test_case "cluster fault matrix, arms agree (domains 1/2/4)"
      `Slow fault_matrix_all_domains;
  ]
