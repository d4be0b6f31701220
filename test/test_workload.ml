(* Tests for traffic sources and packet mixes. *)

let line_rate_math () =
  Alcotest.(check (float 100.)) "148.8 Kpps at 100 Mbps/64B" 148_809.5
    (Workload.Source.line_rate_pps ~mbps:100. ~frame_len:64);
  Alcotest.(check (float 100.)) "~81.3 Kpps at 1518B/1Gbps" 81274.7
    (Workload.Source.line_rate_pps ~mbps:1000. ~frame_len:1518)

let constant_source_rate () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  ignore
    (Workload.Source.spawn_constant e ~name:"s" ~pps:1_000_000.
       ~gen:(fun _ ->
         Packet.Build.udp
           ~src:(Packet.Ipv4.addr_of_string "1.1.1.1")
           ~dst:(Packet.Ipv4.addr_of_string "2.2.2.2")
           ~src_port:1 ~dst_port:2 ())
       ~offer:(fun _ ->
         incr n;
         true)
       ());
  Sim.Engine.run e ~until:(Sim.Engine.of_seconds 1e-3);
  Alcotest.(check int) "1000 frames in 1 ms at 1 Mpps" 1000 !n

let uniform_mix_routes_everywhere () =
  let rng = Sim.Rng.create 11L in
  let gen = Workload.Mix.udp_uniform ~rng ~n_subnets:8 () in
  let seen = Array.make 8 0 in
  for i = 0 to 799 do
    let f = gen i in
    let dst = Int32.to_int (Packet.Ipv4.get_dst f) land 0xFFFFFFFF in
    let subnet = (dst lsr 16) land 0xFF in
    Alcotest.(check bool) "in range" true (subnet < 8);
    seen.(subnet) <- seen.(subnet) + 1;
    Alcotest.(check bool) "valid frame" true (Packet.Ipv4.valid f)
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "subnet %d used" i) true (c > 50))
    seen

let syn_flood_is_syns () =
  let rng = Sim.Rng.create 3L in
  for i = 0 to 50 do
    let f =
      Workload.Mix.syn_flood ~rng
        ~dst:(Packet.Ipv4.addr_of_string "10.0.0.1")
        ~dst_port:80 i
    in
    Alcotest.(check bool) "syn set" true (Packet.Tcp.has_flag f Packet.Tcp.flag_syn);
    Alcotest.(check bool) "valid" true (Packet.Ipv4.valid f)
  done

let options_share_mixes () =
  let rng = Sim.Rng.create 23L in
  let base _ =
    Packet.Build.udp
      ~src:(Packet.Ipv4.addr_of_string "1.1.1.1")
      ~dst:(Packet.Ipv4.addr_of_string "2.2.2.2")
      ~src_port:1 ~dst_port:2 ()
  in
  let gen = Workload.Mix.with_options_share ~rng ~share:0.3 base in
  let n_opts = ref 0 in
  for i = 0 to 999 do
    if Packet.Ipv4.has_options (gen i) then incr n_opts
  done;
  Alcotest.(check bool)
    (Printf.sprintf "share ~0.3 (got %d/1000)" !n_opts)
    true
    (!n_opts > 230 && !n_opts < 370)

(* --- Internet-realistic flows (Workload.Flows) --- *)

(* Two generators from equal seeds must replay byte-identically: same
   gaps, same frames.  This is what makes a failing flows run a repro
   line instead of an anecdote. *)
let flows_replay_identity () =
  let mk () =
    Workload.Flows.create ~rng:(Sim.Rng.create 314L) Workload.Flows.default
  in
  let a = mk () and b = mk () in
  for i = 0 to 499 do
    Alcotest.(check int64)
      (Printf.sprintf "gap %d" i)
      (Workload.Flows.next_gap a) (Workload.Flows.next_gap b);
    let fa = Workload.Flows.gen a i and fb = Workload.Flows.gen b i in
    Alcotest.(check bool)
      (Printf.sprintf "frame %d identical" i)
      true
      (Bytes.equal fa.Packet.Frame.data fb.Packet.Frame.data);
    Alcotest.(check bool) "valid" true (Packet.Ipv4.valid fa)
  done;
  Alcotest.(check int) "same flow count" (Workload.Flows.flows_started a)
    (Workload.Flows.flows_started b)

(* Zipf rank-frequency: regressing log(freq) on log(rank) over the top
   ranks must recover the configured exponent. *)
let zipf_slope () =
  let n = 1000 and s = 1.0 in
  let z = Workload.Flows.Zipf.create ~rng:(Sim.Rng.create 17L) ~n ~s in
  let counts = Array.make (n + 1) 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let k = Workload.Flows.Zipf.draw z in
    Alcotest.(check bool) "in range" true (k >= 1 && k <= n);
    counts.(k) <- counts.(k) + 1
  done;
  (* Least squares over ranks 1..50 — populous enough that sampling
     noise stays small. *)
  let xs = ref [] in
  for k = 1 to 50 do
    if counts.(k) > 0 then
      xs := (log (float_of_int k), log (float_of_int counts.(k))) :: !xs
  done;
  let pts = !xs in
  let m = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  let slope = ((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)) in
  Alcotest.(check bool)
    (Printf.sprintf "slope %.3f within 0.1 of -%g" slope s)
    true
    (Float.abs (slope +. s) < 0.1)

(* Pareto tail: the Hill estimator over the tail (sizes above a
   threshold, where the integer ceiling is negligible) recovers the
   configured shape.  Above [k0] a Pareto is again Pareto with the same
   index, so 1/mean(log(x/k0)) estimates it directly. *)
let pareto_tail_index () =
  let rng = Sim.Rng.create 23L in
  let shape = 1.2 in
  let n = 200_000 in
  let k0 = 20. in
  let sum_log = ref 0. and n_tail = ref 0 and maxed = ref 0 and bad = ref 0 in
  for _ = 1 to n do
    let p =
      Workload.Flows.pareto_pkts ~rng ~shape ~min_pkts:1. ~max_pkts:1_000_000
    in
    if p < 1 then incr bad;
    if p = 1_000_000 then incr maxed;
    if float_of_int p >= k0 then begin
      incr n_tail;
      sum_log := !sum_log +. log (float_of_int p /. k0)
    end
  done;
  Alcotest.(check int) "all sizes at least 1" 0 !bad;
  Alcotest.(check bool) "tail populated" true (!n_tail > 1000);
  let hill = 1. /. (!sum_log /. float_of_int !n_tail) in
  Alcotest.(check bool)
    (Printf.sprintf "Hill estimate %.3f within 15%% of %g" hill shape)
    true
    (Float.abs (hill -. shape) /. shape < 0.15);
  Alcotest.(check bool) "cap rarely hit" true (!maxed < n / 100)

(* Disabled features draw nothing.  burst_ratio=1 must replay the exact
   exponential stream a plain Poisson source would draw from the same
   split, and the udp_share 0/1 coin must not exist: with it pinned
   either way, every other draw (destinations, ports, sizes) lands on
   the same values. *)
let flows_zero_draw_when_disabled () =
  let cfg = { Workload.Flows.default with burst_ratio = 1.0 } in
  let fl = Workload.Flows.create ~rng:(Sim.Rng.create 5L) cfg in
  let rng = Sim.Rng.create 5L in
  let arrival = Sim.Rng.split rng in
  let _flow_stream = Sim.Rng.split rng in
  for i = 0 to 199 do
    let expect =
      Sim.Engine.of_seconds
        (Sim.Rng.exponential arrival ~mean:(1. /. cfg.Workload.Flows.pps))
    in
    Alcotest.(check int64)
      (Printf.sprintf "poisson gap %d" i)
      expect
      (Workload.Flows.next_gap fl)
  done;
  let mk udp_share =
    Workload.Flows.create ~rng:(Sim.Rng.create 77L)
      { Workload.Flows.default with udp_share; dscp_classes = 1 }
  in
  let all_udp = mk 1.0 and all_tcp = mk 0.0 in
  for i = 0 to 299 do
    let fu = Workload.Flows.gen all_udp i
    and ft = Workload.Flows.gen all_tcp i in
    Alcotest.(check bool) "udp side is udp" true
      (Packet.Ipv4.get_proto fu = Packet.Ipv4.proto_udp);
    Alcotest.(check bool) "tcp side is tcp" true
      (Packet.Ipv4.get_proto ft = Packet.Ipv4.proto_tcp);
    Alcotest.(check int32)
      (Printf.sprintf "same dst %d" i)
      (Packet.Ipv4.get_dst fu) (Packet.Ipv4.get_dst ft);
    Alcotest.(check int) "no dscp drawn" 0 (Packet.Ipv4.dscp fu)
  done

let flows_spec_roundtrip () =
  let check_ok spec =
    match Workload.Flows.parse spec with
    | Error m -> Alcotest.failf "%s rejected: %s" spec m
    | Ok cfg -> (
        match Workload.Flows.parse (Workload.Flows.to_spec cfg) with
        | Ok cfg' ->
            Alcotest.(check bool)
              (spec ^ " roundtrips") true (cfg = cfg')
        | Error m -> Alcotest.failf "roundtrip of %s rejected: %s" spec m)
  in
  check_ok "flows";
  check_ok "flows:pps=250000,hosts=1000000,zipf=1.1,burst=8";
  check_ok "pareto=1.05,udp=0.5,dscp=8";
  let check_err spec =
    match Workload.Flows.parse spec with
    | Ok _ -> Alcotest.failf "%s should be rejected" spec
    | Error _ -> ()
  in
  check_err "flows:pps=0";
  check_err "flows:frame=40";
  check_err "flows:udp=1.5";
  check_err "flows:nope=3";
  check_err "flows:pps"

let tests =
  [
    Alcotest.test_case "line rate math" `Quick line_rate_math;
    Alcotest.test_case "flows replay identity" `Quick flows_replay_identity;
    Alcotest.test_case "zipf rank-frequency slope" `Quick zipf_slope;
    Alcotest.test_case "pareto tail index" `Quick pareto_tail_index;
    Alcotest.test_case "flows zero-draw when disabled" `Quick
      flows_zero_draw_when_disabled;
    Alcotest.test_case "flows spec roundtrip" `Quick flows_spec_roundtrip;
    Alcotest.test_case "constant source rate" `Quick constant_source_rate;
    Alcotest.test_case "uniform mix coverage" `Quick
      uniform_mix_routes_everywhere;
    Alcotest.test_case "syn flood shape" `Quick syn_flood_is_syns;
    Alcotest.test_case "options share" `Quick options_share_mixes;
  ]
