(* Extension bench: the section 6 cluster, quantified.

   Four Pentium/IXP pairs, 32 external 100 Mbps ports, a Gigabit fabric.
   All-to-all traffic at external line rate: 3/4 of it crosses the fabric
   and is forwarded twice.  The paper's stated cost — "budget RI capacity
   to service packets arriving on the internal link, leaving fewer cycles
   for the VRP" — shows up as the shrunken per-MP budget. *)

let run () =
  Report.section "Cluster of 4 Pentium/IXP pairs (section 6, future work)";
  let c = Cluster.create ~members:4 () in
  let offered = Sim.Stats.Counter.create () in
  Equivalence.spawn_line_rate c ~seed:23 ~ports:(List.init 32 Fun.id)
    ~gen:(fun ~rng g _ ->
      Sim.Stats.Counter.incr offered;
      Packet.Build.udp
        ~src:(Workload.Mix.subnet_addr ~subnet:(100 + g) ~host:1)
        ~dst:
          (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 32)
             ~host:(1 + Sim.Rng.int rng 50))
        ~src_port:1000 ~dst_port:2000 ());
  Cluster.run_for c ~us:15_000.;
  let secs = Sim.Engine.seconds (Cluster.time c) in
  let offered_mpps =
    float_of_int (Sim.Stats.Counter.value offered) /. secs /. 1e6
  in
  let delivered_mpps =
    float_of_int (Cluster.delivered_total c) /. secs /. 1e6
  in
  Report.row ~unit_:"Mpps" ~name:"aggregate offered (32 x 100 Mbps)"
    ~paper:(4. *. 1.128) ~measured:offered_mpps;
  Report.row ~unit_:"Mpps" ~name:"aggregate delivered" ~paper:(4. *. 1.128)
    ~measured:delivered_mpps;
  Report.info "fabric: %.3f Mpps crossing (expected ~3/4 of offered = %.3f)"
    (Cluster.internal_pps c /. 1e6)
    (0.75 *. offered_mpps);
  let solo =
    Router.Capacity.vrp_budget Router.Capacity.default ~contexts:16
      ~line_rate_pps:1.128e6 ~hashes:3
  in
  let clustered = Cluster.vrp_budget_with_internal_link c ~line_rate_pps:4.512e6 in
  Report.info
    "VRP budget per MP: standalone member %d cycles -> cluster member %d \
     cycles (the internal link's bite)"
    solo.Router.Vrp.b_cycles clustered.Router.Vrp.b_cycles
