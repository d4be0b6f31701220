(* Tests for the core router library: VRP, queues, scheduler, admission,
   classifier, control interface. *)

open Router

let addr = Packet.Ipv4.addr_of_string

let cost_model_table2 () =
  let cm = Cost_model.default in
  Alcotest.(check int) "input registers" 171 (Cost_model.input_reg_total cm);
  Alcotest.(check int) "output registers" 109 (Cost_model.output_reg_total cm)

let vrp_static_cost () =
  let code =
    [ Vrp.Instr 10; Vrp.Sram_read 8; Vrp.Sram_write 4; Vrp.Hash; Vrp.Instr 5 ]
  in
  let c = Vrp.static_cost code in
  Alcotest.(check int) "instr" 15 c.Vrp.instr;
  Alcotest.(check int) "sram read" 8 c.Vrp.sram_read_bytes;
  Alcotest.(check int) "hashes" 1 c.Vrp.hashes;
  Alcotest.(check int) "transfers" 3 (Vrp.sram_transfers Ixp.Config.default c);
  (* 15 instr + a 2-unit read burst (22 + 2) + 1 write x 22 + 1 hash = 62:
     memory bursts pipeline, so units past the first cost one occupancy
     slot, not a full latency. *)
  Alcotest.(check int) "cycles" 62 (Vrp.cycles_estimate Ixp.Config.default c)

let vrp_istore_slots () =
  let code = [ Vrp.Instr 10; Vrp.Sram_read 8; Vrp.Hash ] in
  (* 10 instr + 1 mem issue + 1 hash issue + trailing jump *)
  Alcotest.(check int) "slots" 13 (Vrp.istore_slots code)

let vrp_budget_check () =
  let b = Vrp.prototype_budget in
  let ok = Vrp.static_cost [ Vrp.Instr 45; Vrp.Sram_read 24 ] in
  Alcotest.(check bool) "splicer fits" true
    (Vrp.check b ok ~state_bytes:24 ~slots:50 = Ok ());
  let too_big = Vrp.static_cost [ Vrp.Instr 300 ] in
  (match Vrp.check b too_big ~state_bytes:0 ~slots:10 with
  | Error [ e ] ->
      Alcotest.(check bool) "names cycles" true
        (String.length e > 0 && String.sub e 0 6 = "cycles")
  | _ -> Alcotest.fail "expected one violation");
  match
    Vrp.check b
      (Vrp.static_cost [ Vrp.Instr 300; Vrp.Sram_read 200 ])
      ~state_bytes:200 ~slots:1000
  with
  | Error es -> Alcotest.(check int) "all violations listed" 4 (List.length es)
  | Ok () -> Alcotest.fail "expected failure"

let vrp_execute_charges =
  QCheck.Test.make ~name:"vrp execute duration >= cycle estimate" ~count:50
    QCheck.(pair (int_range 0 50) (int_range 0 10))
    (fun (instr, reads) ->
      let e = Sim.Engine.create () in
      let chip = Ixp.Chip.create e in
      let ctx = Chip_ctx.make chip ~ctx_id:0 in
      let code = [ Vrp.Instr instr; Vrp.Sram_read (4 * reads) ] in
      let elapsed = ref 0L in
      Sim.Engine.spawn e "run" (fun () ->
          let t0 = Sim.Engine.time e in
          Vrp.execute ctx code;
          elapsed := Int64.sub (Sim.Engine.time e) t0);
      Sim.Engine.run_until_idle e;
      let est = Vrp.cycles_estimate Ixp.Config.default (Vrp.static_cost code) in
      Int64.to_int (Int64.div !elapsed 5000L) >= est)

let squeue_fifo_and_capacity () =
  let q = Squeue.create ~capacity:2 () in
  let d i =
    Desc.make
      ~buf:(Ixp.Buffer_pool.handle_of ~index:i ~generation:1)
      ~len:64 ~in_port:0 ~out_port:0 ~arrival:0 ()
  in
  Alcotest.(check bool) "push 1" true (Squeue.push q (d 1));
  Alcotest.(check bool) "push 2" true (Squeue.push q (d 2));
  Alcotest.(check bool) "full" false (Squeue.push q (d 3));
  Alcotest.(check int) "dropped" 1 (Squeue.dropped q);
  (match Squeue.pop q with
  | Some x ->
      Alcotest.(check int) "fifo" 1 (Ixp.Buffer_pool.handle_index x.Desc.buf)
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "peak" 2 (Squeue.peak_length q)

let psched_proportional () =
  let s = Psched.create () in
  let a = Psched.add_client s ~name:"a" ~share:3.0 in
  let b = Psched.add_client s ~name:"b" ~share:1.0 in
  for i = 0 to 199 do
    Psched.enqueue s a i;
    Psched.enqueue s b i
  done;
  (* Dispatch 100 items of equal cost; a should get ~3x b's service. *)
  for _ = 1 to 100 do
    match Psched.next s with
    | Some (c, _) -> Psched.charge s c 100.
    | None -> Alcotest.fail "backlog expected"
  done;
  let sa = Psched.served a and sb = Psched.served b in
  Alcotest.(check int) "total" 100 (sa + sb);
  Alcotest.(check bool)
    (Printf.sprintf "3:1 split (a=%d b=%d)" sa sb)
    true
    (sa >= 70 && sa <= 80)

let psched_no_starvation () =
  let s = Psched.create () in
  let heavy = Psched.add_client s ~name:"heavy" ~share:10.0 in
  let light = Psched.add_client s ~name:"light" ~share:0.1 in
  for i = 0 to 999 do
    Psched.enqueue s heavy i;
    if i < 10 then Psched.enqueue s light i
  done;
  for _ = 1 to 1000 do
    match Psched.next s with
    | Some (c, _) -> Psched.charge s c 50.
    | None -> ()
  done;
  Alcotest.(check int) "light fully served" 10 (Psched.served light)

let admission_me_serial_vs_parallel () =
  let adm = Admission.default Ixp.Config.default in
  let load = Admission.empty_me_load () in
  let mk name instr =
    Forwarder.make ~name ~code:[ Vrp.Instr instr ] ~state_bytes:0
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue)
  in
  (* Two general forwarders sum serially; at 95 instructions each (100
     after the 5% branch-delay inflation) two fit the 240-cycle budget and
     a third does not. *)
  Alcotest.(check bool) "g1" true
    (Admission.admit_me adm load (mk "g1" 95) ~per_flow:false = Ok ());
  Alcotest.(check bool) "g2" true
    (Admission.admit_me adm load (mk "g2" 95) ~per_flow:false = Ok ());
  Alcotest.(check bool) "g3 rejected (serial sum)" true
    (Result.is_error (Admission.admit_me adm load (mk "g3" 95) ~per_flow:false));
  (* Per-flow forwarders only count the max: a 30-cycle one fits. *)
  Alcotest.(check bool) "pf1" true
    (Admission.admit_me adm load (mk "pf1" 30) ~per_flow:true = Ok ());
  Alcotest.(check bool) "pf2 same size fits (parallel)" true
    (Admission.admit_me adm load (mk "pf2" 30) ~per_flow:true = Ok ())

let admission_pe_rates () =
  let adm = Admission.default Ixp.Config.default in
  let load = Admission.empty_pe_load () in
  Alcotest.(check bool) "fits" true
    (Admission.admit_pe adm load ~expected_pps:100_000. ~cycles_per_pkt:1000
    = Ok ());
  Alcotest.(check bool) "cycle limit" true
    (Result.is_error
       (Admission.admit_pe adm load ~expected_pps:500_000. ~cycles_per_pkt:2000));
  Alcotest.(check bool) "pkt rate limit" true
    (Result.is_error
       (Admission.admit_pe adm load ~expected_pps:500_000. ~cycles_per_pkt:10));
  Admission.release_pe load ~expected_pps:100_000. ~cycles_per_pkt:1000;
  Alcotest.(check bool) "after release" true
    (Admission.admit_pe adm load ~expected_pps:400_000. ~cycles_per_pkt:100
    = Ok ())

let mk_router_env () =
  let routes = Iproute.Table.create () in
  Iproute.Table.add routes
    (Iproute.Prefix.of_string "0.0.0.0/0")
    { Iproute.Table.out_port = 0; gateway_mac = 1 };
  let cl = Classifier.create Cost_model.default ~routes in
  let engine = Sim.Engine.create () in
  let chip = Ixp.Chip.create engine in
  let iface = Iface.create ~chip ~classifier:cl ~input_mes:[ 0; 1 ] () in
  (engine, chip, cl, iface)

let classifier_flow_dispatch () =
  let _, _, cl, iface = mk_router_env () in
  let frame =
    Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2") ~src_port:1
      ~dst_port:2 ()
  in
  let key = Packet.Flow.Tuple (Option.get (Packet.Flow.of_frame frame)) in
  let f =
    Forwarder.make ~name:"watch" ~code:[ Vrp.Instr 5 ] ~state_bytes:4
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue)
  in
  (match Iface.install iface ~key ~fwdr:f ~where:Iface.ME () with
  | Ok _ -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (match (Classifier.decide cl frame, Classifier.scratch_per_flow cl) with
  | true, Some e ->
      Alcotest.(check string) "matched" "watch" e.Classifier.fwdr.Forwarder.name
  | _ -> Alcotest.fail "expected per-flow match");
  (* A different flow does not match. *)
  let other =
    Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2") ~src_port:9
      ~dst_port:2 ()
  in
  match (Classifier.decide cl other, Classifier.scratch_per_flow cl) with
  | true, None -> ()
  | _ -> Alcotest.fail "expected no match"

let classifier_general_order_ip_last () =
  let _, _, cl, iface = mk_router_env () in
  let mk name =
    Forwarder.make ~name ~code:[ Vrp.Instr 1 ] ~state_bytes:0
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue)
  in
  let inst f =
    match Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.ME () with
    | Ok fid -> fid
    | Error es -> Alcotest.fail (String.concat "; " es)
  in
  ignore (inst (mk "a"));
  ignore (inst (mk "ip"));
  ignore (inst (mk "b"));
  let names =
    List.map (fun e -> e.Classifier.fwdr.Forwarder.name) (Classifier.general_chain cl)
  in
  Alcotest.(check (list string)) "ip kept last" [ "a"; "b"; "ip" ] names

let iface_install_remove_lifecycle () =
  let _, _, cl, iface = mk_router_env () in
  let f =
    Forwarder.make ~name:"counter" ~code:[ Vrp.Instr 5; Vrp.Sram_write 4 ]
      ~state_bytes:8
      (fun ~state _ ~in_port:_ ->
        Bytes.set state 0 'x';
        Forwarder.Continue)
  in
  let fid =
    match Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.ME () with
    | Ok fid -> fid
    | Error es -> Alcotest.fail (String.concat "; " es)
  in
  Alcotest.(check int) "state allocated" 8
    (Bytes.length (Option.get (Iface.getdata iface fid)));
  (* setdata roundtrip *)
  let data = Bytes.make 8 'z' in
  Alcotest.(check bool) "setdata" true (Iface.setdata iface fid data = Ok ());
  Alcotest.(check bytes) "getdata" data (Option.get (Iface.getdata iface fid));
  Alcotest.(check bool) "size mismatch refused" true
    (Result.is_error (Iface.setdata iface fid (Bytes.make 4 'q')));
  (* remove *)
  Alcotest.(check bool) "remove" true (Iface.remove iface fid = Ok ());
  Alcotest.(check (option reject)) "gone" None (Iface.getdata iface fid);
  Alcotest.(check int) "chain empty" 0 (List.length (Classifier.general_chain cl));
  Alcotest.(check bool) "double remove errors" true
    (Result.is_error (Iface.remove iface fid))

let iface_sa_requires_boot_set () =
  let _, _, _, iface = mk_router_env () in
  let f =
    Forwarder.make ~name:"dynamic" ~code:[] ~state_bytes:0 ~host_cycles:10
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Forward_routed)
  in
  Alcotest.(check bool) "rejected" true
    (Result.is_error
       (Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.SA ()));
  Iface.register_sa_boot_forwarder iface f;
  Alcotest.(check bool) "accepted after boot registration" true
    (Result.is_ok
       (Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.SA ()))

let iface_pe_needs_rate () =
  let _, _, _, iface = mk_router_env () in
  let f =
    Forwarder.make ~name:"proxy" ~code:[] ~state_bytes:0 ~host_cycles:800
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Forward_routed)
  in
  Alcotest.(check bool) "no rate rejected" true
    (Result.is_error
       (Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.PE ()));
  Alcotest.(check bool) "with rate ok" true
    (Result.is_ok
       (Iface.install iface ~key:Packet.Flow.All ~fwdr:f ~where:Iface.PE
          ~expected_pps:10_000. ()))

let iface_istore_exhaustion () =
  let _, _, _, iface = mk_router_env () in
  let big =
    Forwarder.make ~name:"big" ~code:[ Vrp.Instr 200 ] ~state_bytes:0
      (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue)
  in
  (* 200 instructions but the VRP cycle budget is 240: the first install
     passes, the second breaks the serial cycle budget. *)
  Alcotest.(check bool) "first" true
    (Result.is_ok
       (Iface.install iface ~key:Packet.Flow.All ~fwdr:big ~where:Iface.ME ()));
  match Iface.install iface ~key:Packet.Flow.All ~fwdr:big ~where:Iface.ME () with
  | Error (e :: _) ->
      Alcotest.(check bool) "mentions cycles" true
        (String.length e >= 6 && String.sub e 0 6 = "cycles")
  | _ -> Alcotest.fail "expected rejection"

(* The classifier holds one forwarder per flow key.  A second install on
   a bound key must be refused before admission reserves anything, or
   removing the shadowed fid would release a reservation it never held
   and leave the VRP budget over-admitting (section 4.6). *)
let iface_one_forwarder_per_flow_key () =
  let _, _, _, iface = mk_router_env () in
  let frame =
    Packet.Build.tcp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2") ~src_port:1
      ~dst_port:2 ()
  in
  let key = Packet.Flow.Tuple (Option.get (Packet.Flow.of_frame frame)) in
  let install name =
    Iface.install iface ~key ~where:Iface.ME
      ~fwdr:
        (Forwarder.make ~name ~code:[ Vrp.Instr 40 ] ~state_bytes:4
           (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue))
      ()
  in
  for _ = 1 to 3 do
    let fid =
      match install "first" with
      | Ok fid -> fid
      | Error es -> Alcotest.fail (String.concat "; " es)
    in
    (match install "second" with
    | Ok _ -> Alcotest.fail "second forwarder on a bound key admitted"
    | Error es ->
        Alcotest.(check (list string))
          "refusal names the bound fid"
          [ Printf.sprintf "flow key already bound to fid %d (\"first\")" fid ]
          es);
    Alcotest.(check bool) "first still dispatched" true
      (Option.is_some (Iface.find iface fid));
    Alcotest.(check bool) "remove" true (Iface.remove iface fid = Ok ())
  done;
  Alcotest.(check bool) "me_load back to empty" true
    (Iface.me_load iface = Admission.empty_me_load ());
  Alcotest.(check int) "nothing installed" 0
    (List.length (Iface.installed iface))

let capacity_paper_arithmetic () =
  let c = Capacity.default in
  let delay = Capacity.packet_delay_cycles c in
  Alcotest.(check bool)
    (Printf.sprintf "~710 cycle delay (got %d)" delay)
    true
    (delay >= 650 && delay <= 770);
  let par = Capacity.packets_in_parallel c ~at_mpps:3.47 in
  Alcotest.(check bool)
    (Printf.sprintf "~12 packets in parallel (got %.1f)" par)
    true
    (par >= 10. && par <= 14.);
  let ub = Capacity.optimistic_upper_bound_mpps c in
  Alcotest.(check bool)
    (Printf.sprintf "~4.29 Mpps bound (got %.2f)" ub)
    true
    (ub >= 4.0 && ub <= 4.6)

let capacity_budget_inverts () =
  let c = Capacity.default in
  let b = Capacity.vrp_budget c ~contexts:16 ~line_rate_pps:1.128e6 ~hashes:3 in
  Alcotest.(check bool)
    (Printf.sprintf "cycles in the paper's ballpark (got %d)" b.Vrp.b_cycles)
    true
    (b.Vrp.b_cycles >= 120 && b.Vrp.b_cycles <= 400);
  Alcotest.(check int) "state = 4 x transfers" b.Vrp.b_state_bytes
    (4 * b.Vrp.b_sram_transfers);
  (* More budget at lower line rates, monotonically. *)
  let b_slow =
    Capacity.vrp_budget c ~contexts:16 ~line_rate_pps:0.5e6 ~hashes:3
  in
  Alcotest.(check bool) "slower line, bigger budget" true
    (b_slow.Vrp.b_cycles > b.Vrp.b_cycles)

let wfq_profile_split () =
  let w = Router.Wfq.create ~link_pps:1000. ~shares:[| 3.; 1. |] () in
  (* Offer each class 1000 pps for one simulated second (2x overload):
     class 0 should profile ~750 packets, class 1 ~250. *)
  let ps_per_pkt = Sim.Engine.of_seconds 1e-3 in
  let high = [| 0; 0 |] in
  for i = 0 to 999 do
    List.iter
      (fun cls ->
        match
          Router.Wfq.pick w ~class_id:cls
            ~now:(Int64.mul (Int64.of_int i) ps_per_pkt)
        with
        | `High -> high.(cls) <- high.(cls) + 1
        | `Low -> ())
      [ 0; 1 ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "class 0 ~750 (got %d)" high.(0))
    true
    (high.(0) > 700 && high.(0) < 800);
  Alcotest.(check bool)
    (Printf.sprintf "class 1 ~250 (got %d)" high.(1))
    true
    (high.(1) > 220 && high.(1) < 280);
  Alcotest.(check int) "demoted complements" (1000 - high.(1))
    (Router.Wfq.demoted w ~class_id:1)

let wfq_idle_class_keeps_burst () =
  let w = Router.Wfq.create ~link_pps:1000. ~shares:[| 1.; 1. |] () in
  (* After a long idle period a class may burst up to its bucket depth. *)
  let t0 = Sim.Engine.of_seconds 1.0 in
  let bursts = ref 0 in
  for _ = 1 to 20 do
    match Router.Wfq.pick w ~class_id:0 ~now:t0 with
    | `High -> incr bursts
    | `Low -> ()
  done;
  Alcotest.(check int) "burst bounded by bucket depth" 16 !bursts

let wfq_within_budget () =
  Alcotest.(check bool) "selector fits the VRP budget" true
    (Router.Vrp.check Router.Vrp.prototype_budget
       (Router.Vrp.static_cost Router.Wfq.vrp_code)
       ~state_bytes:4
       ~slots:(Router.Vrp.istore_slots Router.Wfq.vrp_code)
    = Ok ())

(* Admission bookkeeping (section 4.6) under random use: random
   straight-line forwarders on the general key or one of four flow keys
   are installed in list order and removed in a random order, for three
   cycles on one interface.  After every install or remove the reserved
   load equals what admitting the still-bound forwarders into a fresh
   load gives, and after every cycle it is [empty_me_load ()] again —
   a shadowed or refused install that left a reservation behind, or a
   remove that released one it never held, breaks it. *)
let admission_load_returns_to_empty =
  let op (kind, n) =
    match kind with
    | 0 -> Vrp.Instr n
    | 1 -> Vrp.Sram_read n
    | 2 -> Vrp.Sram_write n
    | 3 -> Vrp.Scratch_read n
    | 4 -> Vrp.Scratch_write n
    | 5 -> Vrp.Dram_read n
    | 6 -> Vrp.Dram_write n
    | _ -> Vrp.Hash
  in
  let spec =
    QCheck.(
      triple (int_bound 4)
        (list_of_size Gen.(0 -- 6) (pair (int_bound 7) (int_bound 40)))
        (int_bound 32))
  in
  QCheck.Test.make ~name:"admission load returns to empty" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 10) spec) (triple int int int))
    (fun (specs, (s1, s2, s3)) ->
      let _, _, _, iface = mk_router_env () in
      let adm = Admission.default Ixp.Config.default in
      let key_of k =
        if k = 0 then Packet.Flow.All
        else
          Packet.Flow.Tuple
            (Option.get
               (Packet.Flow.of_frame
                  (Packet.Build.tcp ~src:(addr "10.0.0.1")
                     ~dst:(addr "10.0.0.2") ~src_port:k ~dst_port:2 ())))
      in
      let fwdrs =
        List.mapi
          (fun i (k, code, state_bytes) ->
            ( key_of k,
              Forwarder.make
                ~name:(Printf.sprintf "f%d" i)
                ~code:(List.map op code) ~state_bytes
                (fun ~state:_ _ ~in_port:_ -> Forwarder.Continue) ))
          specs
      in
      (* [bound]: fid, forwarder, per-flow, newest first. *)
      let bound = ref [] in
      let load_matches () =
        let fresh = Admission.empty_me_load () in
        List.iter
          (fun (_, f, per_flow) ->
            match Admission.admit_me adm fresh f ~per_flow with
            | Ok () -> ()
            | Error es ->
                QCheck.Test.fail_reportf "bound set refused afresh: %s"
                  (String.concat "; " es))
          (List.rev !bound);
        Iface.me_load iface = fresh
      in
      let cycle seed =
        List.iter
          (fun (key, fwdr) ->
            match Iface.install iface ~key ~fwdr ~where:Iface.ME () with
            | Ok fid ->
                bound := (fid, fwdr, key <> Packet.Flow.All) :: !bound;
                if not (load_matches ()) then
                  QCheck.Test.fail_reportf "load wrong after installing %s"
                    fwdr.Forwarder.name
            | Error _ ->
                if not (load_matches ()) then
                  QCheck.Test.fail_reportf "refused %s left a reservation"
                    fwdr.Forwarder.name)
          fwdrs;
        let st = Random.State.make [| seed |] in
        let order =
          List.map snd
            (List.sort compare
               (List.map (fun b -> (Random.State.bits st, b)) !bound))
        in
        List.iter
          (fun (fid, _, _) ->
            if Iface.remove iface fid <> Ok () then
              QCheck.Test.fail_reportf "remove %d failed" fid;
            bound := List.filter (fun (f, _, _) -> f <> fid) !bound;
            if not (load_matches ()) then
              QCheck.Test.fail_reportf "load wrong after removing fid %d" fid)
          order;
        Iface.me_load iface = Admission.empty_me_load ()
        && Iface.installed iface = []
      in
      cycle s1 && cycle s2 && cycle s3)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ vrp_execute_charges; admission_load_returns_to_empty ]

(* The delivery digest's scratch-buffer fold must reproduce the chain it
   replaced, [MD5 (prev ^ decimal time ^ "|" ^ frame bytes)], byte for
   byte: every committed delivery digest is a chain of these links.  The
   scratch starts too small so its growth is exercised, and one frame
   carries headroom beyond its length, as pooled frames do. *)
let digest_fold_matches_concat () =
  let concat prev ~time f =
    Digest.string
      (prev ^ Int64.to_string (Int64.of_int time) ^ "|"
      ^ Bytes.sub_string f.Packet.Frame.data 0 (Packet.Frame.len f))
  in
  let frame ?(headroom = 0) len seed =
    let f = Packet.Frame.alloc ~headroom len in
    Bytes.iteri
      (fun i _ ->
        Bytes.set f.Packet.Frame.data i (Char.chr (((i * 31) + seed) land 255)))
      f.Packet.Frame.data;
    f
  in
  let frames = [ frame 64 1; frame 1518 2; frame ~headroom:16 64 3 ] in
  let times = [ 0; 9; 10; 1_000_000_000_000; 123_456_789_012_345; max_int ] in
  let scratch = ref (Bytes.create 8) in
  let want = ref (Digest.string "") and got = ref (Digest.string "") in
  List.iter
    (fun time ->
      List.iter
        (fun f ->
          want := concat !want ~time f;
          got := Router.digest_fold scratch !got ~time f;
          Alcotest.(check string)
            (Printf.sprintf "%d B at %d ps" (Packet.Frame.len f) time)
            (Digest.to_hex !want) (Digest.to_hex !got))
        frames)
    times;
  Alcotest.check_raises "negative time"
    (Invalid_argument "Router.digest_fold: negative time") (fun () ->
      ignore (Router.digest_fold scratch !got ~time:(-1) (List.hd frames)))

let tests =
  [
    Alcotest.test_case "cost model matches Table 2" `Quick cost_model_table2;
    Alcotest.test_case "delivery digest fold = concatenated MD5 chain" `Quick
      digest_fold_matches_concat;
    Alcotest.test_case "vrp static cost" `Quick vrp_static_cost;
    Alcotest.test_case "vrp istore slots" `Quick vrp_istore_slots;
    Alcotest.test_case "vrp budget check" `Quick vrp_budget_check;
    Alcotest.test_case "squeue fifo + capacity" `Quick squeue_fifo_and_capacity;
    Alcotest.test_case "psched proportional split" `Quick psched_proportional;
    Alcotest.test_case "psched no starvation" `Quick psched_no_starvation;
    Alcotest.test_case "admission: serial vs parallel" `Quick
      admission_me_serial_vs_parallel;
    Alcotest.test_case "admission: pentium rates" `Quick admission_pe_rates;
    Alcotest.test_case "classifier flow dispatch" `Quick
      classifier_flow_dispatch;
    Alcotest.test_case "classifier keeps ip last" `Quick
      classifier_general_order_ip_last;
    Alcotest.test_case "iface lifecycle" `Quick iface_install_remove_lifecycle;
    Alcotest.test_case "iface SA boot set" `Quick iface_sa_requires_boot_set;
    Alcotest.test_case "iface PE needs rate" `Quick iface_pe_needs_rate;
    Alcotest.test_case "iface budget exhaustion" `Quick iface_istore_exhaustion;
    Alcotest.test_case "iface one forwarder per flow key" `Quick
      iface_one_forwarder_per_flow_key;
    Alcotest.test_case "capacity: paper arithmetic" `Quick
      capacity_paper_arithmetic;
    Alcotest.test_case "capacity: budget inversion" `Quick
      capacity_budget_inverts;
    Alcotest.test_case "wfq profile split" `Quick wfq_profile_split;
    Alcotest.test_case "wfq burst bound" `Quick wfq_idle_class_keeps_burst;
    Alcotest.test_case "wfq fits VRP budget" `Quick wfq_within_budget;
  ]
  @ qsuite
