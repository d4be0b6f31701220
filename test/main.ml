let () =
  Alcotest.run "npr"
    [
      ("sim", Test_sim.tests);
      ("telemetry", Test_telemetry.tests);
      ("packet", Test_packet.tests);
      ("iproute", Test_iproute.tests);
      ("ixp", Test_ixp.tests);
      ("fault", Test_fault.tests);
      ("router", Test_router.tests);
      ("forwarders", Test_forwarders.tests);
      ("classifier", Test_classifier.tests);
      ("workload", Test_workload.tests);
      ("mpls", Test_mpls.tests);
      ("icmp", Test_icmp.tests);
      ("control", Test_control.tests);
      ("cluster", Test_cluster.tests);
      ("fabric", Test_fabric.tests);
      ("host", Test_host.tests);
      ("integration", Test_integration.tests);
      ("fuzz", Test_fuzz.tests);
      ("batch", Test_batch.tests);
      ("loops", Test_loops.tests);
      ("alloc", Test_alloc.tests);
      ("cli", Test_cli.tests);
    ]
