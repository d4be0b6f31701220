(* Tests for the example data forwarders (paper Table 5 and section 4.4). *)

open Router

let addr = Packet.Ipv4.addr_of_string

let run_action (f : Forwarder.t) ?(state = Bytes.make f.Forwarder.state_bytes '\000')
    frame =
  (f.Forwarder.action ~state frame ~in_port:0, state)

let table5_costs_match_paper () =
  (* Table 5's columns: SRAM bytes and register ops per forwarder. *)
  let expect =
    [
      ("TCP Splicer", 24, 45);
      ("Wavelet Dropper", 8, 28);
      ("ACK Monitor", 12, 15);
      ("SYN Monitor", 4, 5);
      ("Port Filter", 20, 26);
      ("IP", 24, 32);
    ]
  in
  List.iter2
    (fun (name, f) (ename, sram, reg) ->
      Alcotest.(check string) "order" ename name;
      let c = Forwarder.cost f in
      Alcotest.(check int) (name ^ " sram") sram
        (c.Vrp.sram_read_bytes + c.Vrp.sram_write_bytes);
      Alcotest.(check int) (name ^ " registers") reg c.Vrp.instr)
    Forwarders.Suite.table5 expect

let table5_all_fit_prototype_budget () =
  List.iter
    (fun (name, f) ->
      let r =
        Vrp.check Vrp.prototype_budget (Forwarder.cost f)
          ~state_bytes:f.Forwarder.state_bytes
          ~slots:(Forwarder.istore_slots f)
      in
      Alcotest.(check bool) (name ^ " fits") true (r = Ok ()))
    Forwarders.Suite.table5

let syn_monitor_counts () =
  let f = Forwarders.Syn_monitor.forwarder in
  let state = Bytes.make 4 '\000' in
  let syn =
    Packet.Build.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:80 ~flags:Packet.Tcp.flag_syn ()
  in
  let ack =
    Packet.Build.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:80 ~flags:Packet.Tcp.flag_ack ()
  in
  ignore (run_action f ~state syn);
  ignore (run_action f ~state syn);
  ignore (run_action f ~state ack);
  Alcotest.(check int) "2 SYNs" 2 (Forwarders.Syn_monitor.syn_count state)

let ack_monitor_detects_dups () =
  let f = Forwarders.Ack_monitor.forwarder in
  let state = Bytes.make 12 '\000' in
  let seg ack =
    Packet.Build.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:80 ~ack ~flags:Packet.Tcp.flag_ack ()
  in
  ignore (run_action f ~state (seg 100l));
  ignore (run_action f ~state (seg 100l));
  ignore (run_action f ~state (seg 100l));
  ignore (run_action f ~state (seg 200l));
  Alcotest.(check int) "dups" 2 (Forwarders.Ack_monitor.dup_acks state);
  Alcotest.(check int) "total" 4 (Forwarders.Ack_monitor.total_acks state);
  Alcotest.(check int32) "last" 200l (Forwarders.Ack_monitor.last_ack state)

let port_filter_ranges () =
  let f = Forwarders.Port_filter.forwarder in
  let state = Bytes.make 20 '\000' in
  Forwarders.Port_filter.set_range state ~slot:0 ~lo:6000 ~hi:7000;
  Forwarders.Port_filter.set_range state ~slot:4 ~lo:80 ~hi:80;
  let pkt port =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:5
      ~dst_port:port ()
  in
  let verdict port = fst (run_action f ~state (pkt port)) in
  Alcotest.(check bool) "blocked mid" true (verdict 6500 = Forwarder.Drop);
  Alcotest.(check bool) "blocked edge" true (verdict 7000 = Forwarder.Drop);
  Alcotest.(check bool) "blocked exact" true (verdict 80 = Forwarder.Drop);
  Alcotest.(check bool) "passes" true (verdict 7001 = Forwarder.Continue);
  Alcotest.(check bool) "port 0 never blocked by empty slot" true
    (verdict 0 = Forwarder.Continue)

let wavelet_dropper_cutoff () =
  let f = Forwarders.Wavelet_dropper.forwarder in
  let state = Bytes.make 8 '\000' in
  Forwarders.Wavelet_dropper.set_cutoff state 2;
  let flow =
    {
      Packet.Flow.src_addr = addr "1.1.1.1";
      src_port = 5;
      dst_addr = addr "2.2.2.2";
      dst_port = 6;
    }
  in
  let gen = Workload.Mix.layered_video ~flow ~layers:5 () in
  let verdicts = List.init 5 (fun i -> fst (run_action f ~state (gen i))) in
  Alcotest.(check (list bool)) "layers 0-2 pass, 3-4 drop"
    [ true; true; true; false; false ]
    (List.map (fun v -> v = Forwarder.Continue) verdicts);
  Alcotest.(check int) "forwarded count" 3
    (Forwarders.Wavelet_dropper.forwarded state)

let tcp_splicer_rewrites () =
  let f = Forwarders.Tcp_splicer.forwarder in
  let state = Bytes.make 24 '\000' in
  Forwarders.Tcp_splicer.configure state ~seq_delta:1000l ~ack_delta:500l
    ~src_port:7777 ~dst_port:8888 ~out_port:3;
  let frame =
    Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
      ~src_port:1234 ~dst_port:80 ~seq:5000l ~ack:9000l ()
  in
  let verdict, _ = run_action f ~state frame in
  Alcotest.(check bool) "forwards to spliced port" true
    (verdict = Forwarder.Forward 3);
  Alcotest.(check int32) "seq shifted" 6000l (Packet.Tcp.get_seq frame);
  Alcotest.(check int32) "ack shifted" 8500l (Packet.Tcp.get_ack frame);
  Alcotest.(check int) "sport" 7777 (Packet.Tcp.get_src_port frame);
  Alcotest.(check int) "dport" 8888 (Packet.Tcp.get_dst_port frame);
  Alcotest.(check bool) "checksum still valid" true (Packet.Tcp.cksum_ok frame);
  Alcotest.(check int) "spliced count" 1 (Forwarders.Tcp_splicer.spliced state)

let splicer_checksum_qcheck =
  QCheck.Test.make
    ~name:"splicer rewrite keeps TCP checksums valid for any deltas"
    ~count:200
    QCheck.(pair int32 int32)
    (fun (seq_delta, ack_delta) ->
      let state = Bytes.make 24 '\000' in
      Forwarders.Tcp_splicer.configure state ~seq_delta ~ack_delta
        ~src_port:1111 ~dst_port:2222 ~out_port:1;
      let frame =
        Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
          ~src_port:5 ~dst_port:6 ~seq:123456l ~ack:654321l ()
      in
      ignore
        (Forwarders.Tcp_splicer.forwarder.Router.Forwarder.action ~state frame
           ~in_port:0);
      Packet.Tcp.cksum_ok frame)

let perf_monitor_aggregates () =
  let f = Forwarders.Perf_monitor.forwarder in
  let state = Bytes.make 16 '\000' in
  let udp =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ()
  in
  let tcp =
    Packet.Build.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ()
  in
  ignore (run_action f ~state udp);
  ignore (run_action f ~state udp);
  ignore (run_action f ~state tcp);
  let s = Forwarders.Perf_monitor.read state in
  Alcotest.(check int) "packets" 3 s.Forwarders.Perf_monitor.packets;
  Alcotest.(check int) "udp" 2 s.Forwarders.Perf_monitor.udp;
  Alcotest.(check int) "tcp" 1 s.Forwarders.Perf_monitor.tcp;
  Alcotest.(check int) "bytes" 192 s.Forwarders.Perf_monitor.bytes

let ip_minimal_diverts_exceptional () =
  let f = Forwarders.Ip.minimal in
  let plain =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ()
  in
  Alcotest.(check bool) "plain forwards" true
    (fst (run_action f plain) = Forwarder.Forward_routed);
  let with_opts = Packet.Build.with_ip_options plain in
  Alcotest.(check bool) "options divert" true
    (fst (run_action f with_opts) = Forwarder.Divert Desc.Strongarm);
  let dying =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ~ttl:1 ()
  in
  Alcotest.(check bool) "ttl=1 diverts" true
    (fst (run_action f dying) = Forwarder.Divert Desc.Strongarm)

let heavyweight_forwarders_exceed_vrp () =
  (* "TCP proxies and full IP require at least 800 and 660 cycles per
     packet... clearly need to run on the StrongARM or Pentium." *)
  List.iter
    (fun (f : Forwarder.t) ->
      Alcotest.(check bool)
        (f.Forwarder.name ^ " exceeds VRP budget")
        true
        (Result.is_error
           (Vrp.check Vrp.prototype_budget (Forwarder.cost f)
              ~state_bytes:f.Forwarder.state_bytes
              ~slots:(Forwarder.istore_slots f))))
    [ Forwarders.Ip.full; Forwarders.Ip.proxy ];
  Alcotest.(check int) "full IP host cost" 660
    Forwarders.Ip.full.Forwarder.host_cycles;
  Alcotest.(check int) "proxy host cost" 800
    Forwarders.Ip.proxy.Forwarder.host_cycles

let full_budget_suite_saturates () =
  let b = Vrp.prototype_budget in
  let suite = Forwarders.Suite.full_budget_suite ~budget:b () in
  (* Every member is admitted, and nothing meaningful fits afterwards. *)
  let adm = Admission.default Ixp.Config.default in
  let load = Admission.empty_me_load () in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Forwarder.name ^ " admitted")
        true
        (Admission.admit_me adm load f ~per_flow:false = Ok ()))
    suite;
  let straw =
    Forwarder.make ~name:"straw" ~code:[ Vrp.Instr 10 ] ~state_bytes:0
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue)
  in
  Alcotest.(check bool) "budget exhausted" true
    (Result.is_error (Admission.admit_me adm load straw ~per_flow:false))

(* DSCP sits in TOS bits 7:2 and the (legacy) precedence in bits 7:5; a
   marked frame must expose the same class through both views, and the
   classifier's Mark verdict must leave a frame the extractor reads
   back exactly. *)
let dscp_extraction_regression () =
  List.iter
    (fun tos ->
      let f =
        Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2")
          ~src_port:1 ~dst_port:2 ~tos ()
      in
      Alcotest.(check int)
        (Printf.sprintf "tos %#x roundtrips" tos)
        tos (Packet.Ipv4.get_tos f);
      Alcotest.(check int)
        (Printf.sprintf "dscp of tos %#x" tos)
        (tos lsr 2) (Packet.Ipv4.dscp f);
      Alcotest.(check int)
        (Printf.sprintf "precedence of tos %#x" tos)
        (tos lsr 5) (Packet.Ipv4.precedence f);
      Alcotest.(check bool) "checksum valid" true (Packet.Ipv4.valid f))
    [ 0x00; 0x04; 0x20; 0xB8 (* EF *); 0xE0 ];
  let cls = Forwarders.Classifier.create () in
  Forwarders.Classifier.add cls
    (Forwarders.Classifier.rule ~prio:1 (Forwarders.Classifier.Mark 46));
  let f =
    Forwarders.Classifier.forwarder ~cm:Router.Cost_model.default cls
  in
  let frame =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ()
  in
  Alcotest.(check bool) "mark continues" true
    (fst (run_action f frame) = Forwarder.Continue);
  Alcotest.(check int) "marked EF" 46 (Packet.Ipv4.dscp frame);
  Alcotest.(check bool) "checksum refilled" true (Packet.Ipv4.valid frame);
  (* Marking rewrites only the DSCP: a congestion-experienced frame
     (ECN = 0b11, RFC 3168) keeps its ECN bits. *)
  let ce =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ~tos:0x03 ()
  in
  ignore (run_action f ce);
  Alcotest.(check int) "EF keeps CE" 0xBB (Packet.Ipv4.get_tos ce);
  Alcotest.(check bool) "CE frame checksum refilled" true
    (Packet.Ipv4.valid ce)

let qsuite = List.map QCheck_alcotest.to_alcotest [ splicer_checksum_qcheck ]

let tests =
  [
    Alcotest.test_case "Table 5 costs match paper" `Quick
      table5_costs_match_paper;
    Alcotest.test_case "Table 5 forwarders fit budget" `Quick
      table5_all_fit_prototype_budget;
    Alcotest.test_case "syn monitor" `Quick syn_monitor_counts;
    Alcotest.test_case "ack monitor" `Quick ack_monitor_detects_dups;
    Alcotest.test_case "port filter" `Quick port_filter_ranges;
    Alcotest.test_case "wavelet dropper" `Quick wavelet_dropper_cutoff;
    Alcotest.test_case "tcp splicer rewrites" `Quick tcp_splicer_rewrites;
    Alcotest.test_case "perf monitor" `Quick perf_monitor_aggregates;
    Alcotest.test_case "minimal IP diverts exceptional" `Quick
      ip_minimal_diverts_exceptional;
    Alcotest.test_case "heavy forwarders exceed VRP" `Quick
      heavyweight_forwarders_exceed_vrp;
    Alcotest.test_case "full-budget suite saturates" `Quick
      full_budget_suite_saturates;
    Alcotest.test_case "dscp extraction regression" `Quick
      dscp_extraction_regression;
  ]
  @ qsuite
