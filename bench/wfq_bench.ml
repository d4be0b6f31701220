(* Extension bench: the section 3.4.1 sketch, realized.

   Two classes (shares 3:1) offer equal load, together twice a 100 Mbps
   port's line rate.  The input side runs the WFQ selector (a token bucket
   in the VRP budget) and enqueues into two priority queues; the output
   context drains them in strict priority (O.3).  Under congestion the
   delivered split should approach the 3:1 shares; without the selector
   (one shared queue) the classes split the link evenly. *)

let addr = Packet.Ipv4.addr_of_string
let line_pps = Workload.Source.line_rate_pps ~mbps:100. ~frame_len:64

let run_case ~use_wfq =
  let engine = Sim.Engine.create () in
  (* Ports 0 and 1 receive one class each; port 2 is the congested output. *)
  let chip =
    Ixp.Chip.create
      ~ports:(List.init 3 (fun _ -> { Ixp.Chip.mbps = 100.; sink = None }))
      engine
  in
  let cm = Router.Cost_model.default in
  let port = chip.Ixp.Chip.ports.(2) in
  let queues =
    [| Router.Squeue.create ~name:"high" ~capacity:512 ();
       Router.Squeue.create ~name:"low" ~capacity:512 () |]
  in
  let wfq = Router.Wfq.create ~link_pps:line_pps ~shares:[| 3.; 1. |] () in
  let delivered = [| 0; 0 |] in
  (* Two input contexts, one per class, on separate MicroEngines. *)
  let ring = Sim.Token_ring.create ~members:2 engine in
  let frame_of cls =
    Packet.Build.udp
      ~src:(addr (Printf.sprintf "10.250.0.%d" (1 + cls)))
      ~dst:(addr "10.0.0.1") ~src_port:(1000 + cls) ~dst_port:2000 ()
  in
  let mk_process cls ctx _frm ~in_port =
    ignore in_port;
    (* Trivial classifier + the WFQ selector's VRP cost. *)
    Router.Chip_ctx.exec ctx cm.Router.Cost_model.classify_null_instr;
    Router.Chip_ctx.hash_charge ctx;
    Router.Chip_ctx.sram_read ctx ~bytes:8;
    let qid =
      if use_wfq then begin
        Router.Vrp.execute ctx Router.Wfq.vrp_code;
        match Router.Wfq.pick wfq ~class_id:cls ~now:(Sim.Engine.time engine) with
        | `High -> 0
        | `Low -> 1
      end
      else 0
    in
    Router.Input_loop.To_queue { qid; out_port = cls; fid = -1 }
  in
  List.iteri
    (fun cls ctx_id ->
      ignore ctx_id;
      let ctx_id = if cls = 0 then 0 else 4 in
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
      (* Each class offers the full output line rate: 2x overload
         together, paced by a real source through a real port. *)
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
    [ 0; 4 ];
  (* One output context draining both queues in priority order, paced by
     the port's 100 Mbps wire. *)
  let oring = Sim.Token_ring.create ~members:1 engine in
  let ostats = Router.Output_loop.make_stats () in
  let ol =
    {
      Router.Output_loop.cm;
      discipline = Router.Output_loop.O3_multi;
      queues;
      port_for = (fun _ -> Some port);
      on_tx =
        (fun desc _ ->
          let cls = desc.Router.Desc.out_port in
          delivered.(cls) <- delivered.(cls) + 1);
      scope = None;
    }
  in
  Router.Output_loop.spawn_context ol chip ~ring:oring ~slot:0 ~ctx_id:8
    ~stats:ostats;
  (* Together the classes offer twice what port 2 can carry; the queue
     drops are the congestion under test. *)
  Sim.Engine.run engine ~until:(Sim.Engine.of_seconds 40e-3);
  (delivered.(0), delivered.(1))

let run () =
  Report.section "Input-side WFQ approximation (section 3.4.1 extension)";
  let h1, l1 = run_case ~use_wfq:false in
  Report.info
    "one shared queue, no selector:   class A %5d, class B %5d  (ratio %.2f)"
    h1 l1
    (float_of_int h1 /. float_of_int (max 1 l1));
  let h2, l2 = run_case ~use_wfq:true in
  Report.info
    "WFQ selector + priority queues:  class A %5d, class B %5d  (ratio %.2f, \
     shares 3:1)"
    h2 l2
    (float_of_int h2 /. float_of_int (max 1 l2));
  Report.info
    "the selector costs %d VRP cycles per packet (admission-checked like any \
     forwarder)"
    (Router.Vrp.cycles_estimate Ixp.Config.default
       (Router.Vrp.static_cost Router.Wfq.vrp_code))
