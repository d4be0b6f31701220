(* Section 3.6: maximum StrongARM forwarding rate with a null forwarder —
   every packet diverted to the StrongARM, which dequeues (polling vs
   interrupts), runs no code, and re-enqueues for output.  Paper: 526 Kpps
   polling, "interrupts were significantly slower", zero spare cycles at
   that rate. *)

(* The paper's null forwarder: no packet work at all — the measured rate
   is pure dequeue/dispatch/re-enqueue overhead.  [host_cycles] covers the
   jump-table dispatch and loop bookkeeping around the (empty) body. *)
let null_local =
  Router.Forwarder.make ~name:"sa-null" ~code:[] ~state_bytes:0
    ~host_cycles:140 (fun ~state:_ _ ~in_port:_ -> Router.Forwarder.Forward 0)

let run_mode wakeup =
  let config = { Router.default_config with Router.sa_wakeup = wakeup } in
  let r = Router.create ~config () in
  for p = 0 to 7 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  Router.Iface.register_sa_boot_forwarder r.Router.iface null_local;
  let fid =
    match
      Router.Iface.install r.Router.iface ~key:Packet.Flow.All
        ~fwdr:null_local ~where:Router.Iface.SA ()
    with
    | Ok fid -> fid
    | Error es -> failwith (String.concat ";" es)
  in
  (* Divert every packet to the StrongARM, charging section 3's trivial
     classifier on the way: destination hash, route-cache probe. *)
  let cm = config.Router.cm in
  let process t ctx frame ~in_port =
    ignore in_port;
    Router.Chip_ctx.exec ctx cm.Router.Cost_model.classify_null_instr;
    Router.Chip_ctx.hash_charge ctx;
    Router.Chip_ctx.sram_read ctx
      ~bytes:(4 * cm.Router.Cost_model.classify_null_sram_reads);
    match Router.Classifier.classify_functional t.Router.classifier frame with
    | Router.Classifier.Invalid -> Router.Input_loop.Drop_it
    | Router.Classifier.Classified { route; _ } ->
        let out_port =
          match route with
          | Some nh -> nh.Iproute.Table.out_port
          | None -> -1
        in
        Router.Input_loop.To_queue
          { qid = Router.qid_sa_local t; out_port; fid }
  in
  Router.start ~process r;
  let rng = Sim.Rng.create 2L in
  (* Offer well above the StrongARM's capacity so it saturates. *)
  List.iteri
    (fun p rng ->
      ignore
        (Workload.Source.spawn_constant r.Router.engine
           ~name:(Printf.sprintf "gen%d" p)
           ~pps:134_000.
           ~gen:(Workload.Mix.udp_uniform ~rng ~n_subnets:8 ())
           ~offer:(fun f -> Router.inject r ~port:p f)
           ()))
    (List.init 8 (fun _ -> Sim.Rng.split rng));
  Router.run_for r ~us:10_000.;
  let secs = Sim.Engine.seconds (Sim.Engine.time r.Router.engine) in
  let serviced =
    Sim.Stats.Counter.value
      r.Router.sa.Router.Strongarm.stats.Router.Strongarm.local_done
  in
  let rate = float_of_int serviced /. secs in
  let spare_per_pkt =
    if serviced = 0 then nan
    else
      (200e6 /. rate)
      -. (Router.Strongarm.busy_cycles r.Router.sa /. float_of_int serviced)
  in
  (rate /. 1e3, spare_per_pkt)

let run () =
  Report.section "StrongARM null-forwarder rate (section 3.6)";
  let kpps, spare = run_mode Router.Strongarm.Polling in
  Report.row ~unit_:"Kpps" ~name:"polling" ~paper:526. ~measured:kpps;
  Report.row ~unit_:"cyc" ~name:"spare cycles per packet (polling)" ~paper:0.
    ~measured:spare;
  let kpps_i, _ = run_mode Router.Strongarm.Interrupts in
  Report.row ~unit_:"Kpps" ~name:"interrupts (paper: 'significantly slower')"
    ~paper:526. ~measured:kpps_i;
  Report.info "interrupt/polling ratio: %.2f" (kpps_i /. kpps)
