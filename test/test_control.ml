(* Tests for the RIP-style routing daemon on the Pentium. *)

let addr = Packet.Ipv4.addr_of_string

let pfx = Iproute.Prefix.of_string

let encode_decode_roundtrip () =
  let routes =
    [
      { Control.Rip.prefix = pfx "10.1.0.0/16"; metric = 2 };
      { Control.Rip.prefix = pfx "192.168.0.0/24"; metric = 0 };
      { Control.Rip.prefix = pfx "0.0.0.0/0"; metric = 15 };
    ]
  in
  let f =
    Control.Rip.encode ~src:(addr "10.250.0.2")
      ~dst:(Control.Rip.router_addr 1) routes
  in
  Alcotest.(check bool) "valid ip" true (Packet.Ipv4.valid f);
  match Control.Rip.decode f with
  | None -> Alcotest.fail "decode failed"
  | Some got ->
      Alcotest.(check int) "count" 3 (List.length got);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "prefix" true
            (Iproute.Prefix.equal a.Control.Rip.prefix b.Control.Rip.prefix);
          Alcotest.(check int) "metric" a.Control.Rip.metric
            b.Control.Rip.metric)
        routes got

let decode_rejects_noise () =
  let not_rip =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:5
      ~dst_port:6 ()
  in
  Alcotest.(check bool) "wrong port" true (Control.Rip.decode not_rip = None);
  let tcp =
    Packet.Build.tcp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:520
      ~dst_port:520 ()
  in
  Alcotest.(check bool) "not udp" true (Control.Rip.decode tcp = None)

let mk () =
  let r = Router.create () in
  let daemon = Control.Rip.create r in
  (r, daemon)

let counter = Sim.Stats.Counter.value

let announcements_install_routes () =
  let r, daemon = mk () in
  let neighbor = addr "10.250.0.2" in
  (match Control.Rip.add_neighbor daemon ~addr:neighbor ~via_port:1 with
  | Ok _ -> ()
  | Error es -> Alcotest.fail (String.concat ";" es));
  Router.start r;
  let ann =
    Control.Rip.encode ~src:neighbor ~dst:(Control.Rip.router_addr 1)
      [ { Control.Rip.prefix = pfx "10.7.0.0/16"; metric = 1 } ]
  in
  ignore (Router.inject r ~port:1 ann);
  Router.run_for r ~us:1000.;
  Alcotest.(check int) "announcement processed" 1
    (counter (Control.Rip.stats daemon).Control.Rip.announcements);
  Alcotest.(check int) "route installed" 1
    (counter (Control.Rip.stats daemon).Control.Rip.routes_installed);
  Alcotest.(check (option int)) "metric incremented" (Some 2)
    (Control.Rip.best_metric daemon (pfx "10.7.0.0/16"));
  (* Forwarding now works for the learned prefix. *)
  let data =
    Packet.Build.udp ~src:(addr "10.250.0.3") ~dst:(addr "10.7.1.1")
      ~src_port:9 ~dst_port:10 ()
  in
  ignore (Router.inject r ~port:0 data);
  Router.run_for r ~us:1000.;
  Alcotest.(check int) "learned route forwards out port 1" 1
    (counter r.Router.delivered.(1))

let better_metric_wins_and_withdrawal () =
  let r, daemon = mk () in
  let n1 = addr "10.250.0.2" and n2 = addr "10.250.0.3" in
  ignore (Control.Rip.add_neighbor daemon ~addr:n1 ~via_port:1);
  ignore (Control.Rip.add_neighbor daemon ~addr:n2 ~via_port:2);
  Router.start r;
  let p = pfx "10.9.0.0/16" in
  let send ~from ~via ~metric =
    ignore
      (Router.inject r ~port:via
         (Control.Rip.encode ~src:from ~dst:(Control.Rip.router_addr via)
            [ { Control.Rip.prefix = p; metric } ]));
    Router.run_for r ~us:800.
  in
  send ~from:n1 ~via:1 ~metric:5;
  Alcotest.(check (option int)) "first" (Some 6) (Control.Rip.best_metric daemon p);
  (* A worse announcement from another neighbor is rejected... *)
  send ~from:n2 ~via:2 ~metric:9;
  Alcotest.(check (option int)) "worse rejected" (Some 6)
    (Control.Rip.best_metric daemon p);
  (* ...a better one wins... *)
  send ~from:n2 ~via:2 ~metric:2;
  Alcotest.(check (option int)) "better wins" (Some 3)
    (Control.Rip.best_metric daemon p);
  (* ...and only the current next hop can withdraw. *)
  send ~from:n1 ~via:1 ~metric:Control.Rip.infinity_metric;
  Alcotest.(check (option int)) "foreign withdrawal ignored" (Some 3)
    (Control.Rip.best_metric daemon p);
  send ~from:n2 ~via:2 ~metric:Control.Rip.infinity_metric;
  Alcotest.(check (option int)) "withdrawn" None
    (Control.Rip.best_metric daemon p);
  Alcotest.(check int) "withdrawals counted" 1
    (counter (Control.Rip.stats daemon).Control.Rip.routes_withdrawn)

let unconfigured_neighbor_ignored () =
  let r, daemon = mk () in
  ignore (Control.Rip.add_neighbor daemon ~addr:(addr "10.250.0.2") ~via_port:1);
  Router.start r;
  (* An announcement from a stranger matches no per-flow entry: it is just
     an (unroutable) data packet, never reaching the daemon. *)
  let ann =
    Control.Rip.encode ~src:(addr "66.66.66.66")
      ~dst:(Control.Rip.router_addr 1)
      [ { Control.Rip.prefix = pfx "10.9.0.0/16"; metric = 1 } ]
  in
  ignore (Router.inject r ~port:1 ann);
  Router.run_for r ~us:1000.;
  Alcotest.(check int) "nothing processed" 0
    (counter (Control.Rip.stats daemon).Control.Rip.announcements);
  Alcotest.(check int) "no routes learned" 0 (Control.Rip.route_count daemon)

(* Churn fuzz: a seeded RIP storm (>10 k updates through the daemon's
   accept/reject path) against the poptrie-backed table with selective
   cache invalidation, interleaved with data-plane lookups.  Every
   cached answer must equal a fresh full lookup (no stale line survives
   an update), and the table must stay identical to a binary-trie
   oracle rebuilt from its own bindings at checkpoints. *)
let rip_churn_fuzz () =
  let config =
    { Router.default_config with Router.selective_invalidation = true }
  in
  let r = Router.create ~config () in
  let daemon = Control.Rip.create r in
  let apply p metric =
    Control.Rip.apply daemon ~via_port:0 { Control.Rip.prefix = p; metric }
  in
  let rng = Sim.Rng.create 20011L in
  let base = Iproute.Gen.bgp_table ~rng ~n:3_000 ~n_ports:8 in
  Array.iter (fun (p, v) -> apply p (1 + (v land 1))) base;
  let ops = Iproute.Gen.churn ~rng ~base ~n_ports:8 ~steps:10_000 in
  (* A recurring flow population so probes re-hit warm cache lines. *)
  let pool =
    Array.init 128 (fun i ->
        if i land 3 = 0 then Sim.Rng.int32 rng
        else Iproute.Gen.hit_addr ~rng base)
  in
  let rebuild () =
    List.fold_left
      (fun t (p, nh) -> Iproute.Btrie.add t p nh)
      Iproute.Btrie.empty
      (Iproute.Table.bindings r.Router.routes)
  in
  let hits = ref 0 and hit = ref false in
  Array.iteri
    (fun i op ->
      (match op with
      | Iproute.Gen.Announce (p, v) -> apply p (1 + (v land 1))
      | Iproute.Gen.Withdraw p -> apply p Control.Rip.infinity_metric);
      for k = 0 to 2 do
        let a = pool.(((3 * i) + k) land 127) in
        let nh =
          Iproute.Table.lookup_cached r.Router.routes
            (Int32.to_int a land 0xFFFFFFFF)
            ~hit
        in
        if !hit then incr hits;
        let cached = if nh == Iproute.Table.no_route then None else Some nh in
        if cached <> Iproute.Table.lookup r.Router.routes a then
          Alcotest.failf "stale cached next-hop after op %d" i
      done;
      if i mod 1_000 = 0 then begin
        let oracle = rebuild () in
        Alcotest.(check int)
          (Printf.sprintf "size vs oracle at op %d" i)
          (Iproute.Btrie.size oracle)
          (Iproute.Table.size r.Router.routes);
        Array.iter
          (fun a ->
            let want = Option.map snd (Iproute.Btrie.lookup oracle a) in
            if Iproute.Table.lookup r.Router.routes a <> want then
              Alcotest.failf "diverged from btrie oracle at op %d" i)
          pool
      end)
    ops;
  Alcotest.(check bool) "cache hit path exercised" true (!hits > 0);
  Alcotest.(check bool)
    "storm produced over 8k table writes" true
    (Control.Rip.table_changes daemon > 8_000);
  (* Convergence telemetry: the storm is over, so quiet time grows with
     simulated time while the change count stays put.  The engine clock
     only advances over events, so park one 50 us out (the timer wheel
     may land it a tick early, hence the 40 us floor). *)
  let changes = Control.Rip.table_changes daemon in
  Sim.Engine.spawn r.Router.engine "tick" (fun () ->
      Sim.Engine.wait_in r.Router.engine 50_000_000);
  Router.run_for r ~us:50.;
  Alcotest.(check int) "no writes after the storm" changes
    (Control.Rip.table_changes daemon);
  Alcotest.(check bool)
    "quiet_ps tracks time since last write" true
    (Control.Rip.quiet_ps daemon >= 40_000_000L)

(* ---- The RIB against a record-based model ----

   The daemon keeps one entry per prefix (metric and next-hop port).  The
   model below keeps the same entry as a record and applies RIP's rules
   as written: the metric grows by one per hop and caps at infinity; a
   withdrawal counts only from the current next hop; a refresh (same
   port, same metric) is rejected without a table write; a route is
   replaced by a better metric or by its own next hop.  Nested and
   disjoint prefixes make [Table.lookup] pick between entries. *)

type model_entry = { m_metric : int; m_port : int }

let model_prefixes =
  Array.map pfx
    [|
      "10.0.0.0/8";
      "10.1.0.0/16";
      "10.1.2.0/24";
      "10.1.2.128/25";
      "10.1.2.130/32";
      "192.168.0.0/16";
    |]

(* The first and last address under each prefix, and one address no
   prefix covers. *)
let model_addrs =
  addr "172.16.0.1"
  :: List.concat_map
       (fun p ->
         let a = Iproute.Prefix.addr p in
         let host = (1 lsl (32 - Iproute.Prefix.length p)) - 1 in
         [ a; Int32.logor a (Int32.of_int host) ])
       (Array.to_list model_prefixes)

(* An op is (kind, prefix, port, metric): kind 0-1 announces [metric]
   via [port]; 2 refreshes the current entry (an announce otherwise); 3
   withdraws via [port]; 4 withdraws via the current next hop. *)
let rib_matches_model =
  QCheck.Test.make ~name:"RIB = record model under announce/refresh/withdraw"
    ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (quad (int_range 0 4) (int_range 0 5) (int_range 0 7)
           (int_range 0 16)))
    (fun ops ->
      let r, daemon = mk () in
      let st = Control.Rip.stats daemon in
      let model = Hashtbl.create 8 in
      let installed = ref 0 and withdrawn = ref 0 and rejected = ref 0 in
      let model_apply p ~via_port metric =
        let metric = min Control.Rip.infinity_metric (metric + 1) in
        let cur = Hashtbl.find_opt model p in
        if metric >= Control.Rip.infinity_metric then
          match cur with
          | Some e when e.m_port = via_port ->
              Hashtbl.remove model p;
              incr withdrawn
          | _ -> incr rejected
        else
          match cur with
          | Some e when e.m_port = via_port && e.m_metric = metric ->
              incr rejected
          | Some e when metric >= e.m_metric && e.m_port <> via_port ->
              incr rejected
          | _ ->
              Hashtbl.replace model p { m_metric = metric; m_port = via_port };
              incr installed
      in
      let model_lookup a =
        Hashtbl.fold
          (fun p e best ->
            if not (Iproute.Prefix.matches p a) then best
            else
              match best with
              | Some (q, _)
                when Iproute.Prefix.length q > Iproute.Prefix.length p ->
                  best
              | _ -> Some (p, e.m_port))
          model None
        |> Option.map snd
      in
      List.iteri
        (fun i (kind, pi, port, metric) ->
          let p = model_prefixes.(pi) in
          let cur = Hashtbl.find_opt model p in
          let via_port, metric =
            match (kind, cur) with
            | 2, Some e -> (e.m_port, e.m_metric - 1)
            | 3, _ -> (port, Control.Rip.infinity_metric)
            | 4, Some e -> (e.m_port, Control.Rip.infinity_metric)
            | 4, None -> (port, Control.Rip.infinity_metric)
            | _ -> (port, metric)
          in
          Control.Rip.apply daemon ~via_port { Control.Rip.prefix = p; metric };
          model_apply p ~via_port metric;
          let fail what =
            QCheck.Test.fail_reportf "op %d (%d, %d, %d, %d): %s" i kind pi
              port metric what
          in
          Array.iter
            (fun q ->
              let want =
                Option.map (fun e -> e.m_metric) (Hashtbl.find_opt model q)
              in
              if Control.Rip.best_metric daemon q <> want then
                fail "best_metric")
            model_prefixes;
          if Control.Rip.route_count daemon <> Hashtbl.length model then
            fail "route_count";
          if counter st.Control.Rip.routes_installed <> !installed then
            fail "installed";
          if counter st.Control.Rip.routes_withdrawn <> !withdrawn then
            fail "withdrawn";
          if counter st.Control.Rip.rejected <> !rejected then fail "rejected";
          List.iter
            (fun a ->
              let got =
                Option.map
                  (fun nh -> nh.Iproute.Table.out_port)
                  (Iproute.Table.lookup r.Router.routes a)
              in
              if got <> model_lookup a then fail "Table.lookup")
            model_addrs)
        ops;
      true)

let tests =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick encode_decode_roundtrip;
    Alcotest.test_case "decode rejects noise" `Quick decode_rejects_noise;
    Alcotest.test_case "announcements install routes" `Quick
      announcements_install_routes;
    Alcotest.test_case "metric preference + withdrawal" `Quick
      better_metric_wins_and_withdrawal;
    Alcotest.test_case "unconfigured neighbor ignored" `Quick
      unconfigured_neighbor_ignored;
    Alcotest.test_case "rip churn fuzz vs btrie oracle" `Quick rip_churn_fuzz;
    QCheck_alcotest.to_alcotest rib_matches_model;
  ]
