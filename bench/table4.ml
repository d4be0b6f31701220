(* Table 4: maximum forwarding rate through the Pentium and the excess
   per-packet cycles on each processor (the paper's delay-loop method).

   "We measured the maximum rate that the Pentium can process packets by
   having it run a loop that reads packets of various sizes from the
   IXP1200, and then writes the packet back onto the IXP1200.  The
   StrongARM is programmed to feed packets to the Pentium as fast as
   possible." *)

let run_path ~frame_len =
  let engine = Sim.Engine.create () in
  let chip = Ixp.Chip.create ~ports:[] engine in
  let routes = Iproute.Table.create () in
  let returned = Sim.Stats.Counter.create () in
  let out_enqueue _ctx _desc =
    Sim.Stats.Counter.incr returned;
    true
  in
  let sa =
    Router.Strongarm.create chip Router.Cost_model.default ~full_copy:true
      ~pe_buffers:64
      ~lookup_fid:(fun _ -> None)
      ~routes ~out_enqueue ()
  in
  let pe =
    Router.Pentium.create chip Router.Cost_model.default
      ~from_sa:sa.Router.Strongarm.to_pe ~returns:sa.Router.Strongarm.returns
      ~lookup_fid:(fun _ -> None)
      ()
  in
  Router.Strongarm.spawn sa chip;
  Router.Pentium.spawn pe chip;
  let frame =
    Packet.Build.udp ~frame_len
      ~src:(Packet.Ipv4.addr_of_string "10.0.0.1")
      ~dst:(Packet.Ipv4.addr_of_string "10.1.0.1")
      ~src_port:1 ~dst_port:2 ()
  in
  (* Zero-cost feeder keeping the StrongARM's Pentium-bound queue full. *)
  Sim.Engine.spawn engine "feeder" (fun () ->
      let rec top_up () =
        let q = sa.Router.Strongarm.pe_qs.(0) in
        while Router.Squeue.length q < 64 do
          let buf = Ixp.Buffer_pool.alloc chip.Ixp.Chip.buffers frame in
          ignore
            (Router.Squeue.push q
               (Router.Desc.make ~buf ~len:frame_len ~in_port:0 ~out_port:0
                  ~arrival:(Sim.Engine.clock_i engine) ()))
        done;
        Sim.Engine.wait_in engine 20_000_000;
        top_up ()
      in
      top_up ());
  let warm = Sim.Engine.of_seconds 2e-3 in
  let stop = Sim.Engine.of_seconds 12e-3 in
  Sim.Engine.run engine ~until:warm;
  let n0 = Sim.Stats.Counter.value returned in
  let pe_busy0 = Router.Pentium.busy_cycles pe in
  let sa_busy0 = Router.Strongarm.busy_cycles sa in
  Sim.Engine.run engine ~until:stop;
  let window_s = Sim.Engine.seconds (Int64.sub stop warm) in
  let n = Sim.Stats.Counter.value returned - n0 in
  let rate = float_of_int n /. window_s in
  let pe_busy_per_pkt =
    (Router.Pentium.busy_cycles pe -. pe_busy0) /. float_of_int (max 1 n)
  in
  let pe_spare = (733e6 /. rate) -. pe_busy_per_pkt in
  let sa_busy_per_pkt =
    (Router.Strongarm.busy_cycles sa -. sa_busy0) /. float_of_int (max 1 n)
  in
  let sa_spare = (200e6 /. rate) -. sa_busy_per_pkt in
  (rate /. 1e3, pe_spare, sa_spare)

let run () =
  Report.section "Table 4: forwarding through the Pentium (SA feeds flat out)";
  let r64, pe64, sa64 = run_path ~frame_len:64 in
  Report.row ~unit_:"Kpps" ~name:"64-byte rate" ~paper:534.0 ~measured:r64;
  Report.row ~unit_:"cyc" ~name:"64-byte Pentium spare cycles" ~paper:500.
    ~measured:pe64;
  Report.row ~unit_:"cyc" ~name:"64-byte StrongARM spare cycles" ~paper:0.
    ~measured:sa64;
  let r1500, pe1500, sa1500 = run_path ~frame_len:1518 in
  Report.row ~unit_:"Kpps" ~name:"1500-byte rate" ~paper:43.6 ~measured:r1500;
  Report.row ~unit_:"cyc" ~name:"1500-byte Pentium spare cycles" ~paper:800.
    ~measured:pe1500;
  Report.row ~unit_:"cyc" ~name:"1500-byte StrongARM spare cycles" ~paper:4200.
    ~measured:sa1500
