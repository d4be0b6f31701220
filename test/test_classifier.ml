(* The multi-field classifier's differential battery: the tuple-space
   engine is only trusted because every answer it gives is replayed
   against a naive linear oracle over qcheck-generated rule sets, a
   10k-operation churn fuzz proves the flow cache can never serve a
   stale answer, and a classified router must deliver the identical
   schedule whether or not batching is on. *)

open Forwarders

let addr = Packet.Ipv4.addr_of_string

let five ?(src = "10.1.0.1") ?(dst = "10.2.0.2") ?(sport = 1234)
    ?(dport = 80) ?(proto = 17) ?(dscp = 0) () =
  {
    Packet.Flow.f_src = addr src;
    f_src_port = sport;
    f_dst = addr dst;
    f_dst_port = dport;
    f_proto = proto;
    f_dscp = dscp;
  }

let of_rules rules =
  let t = Classifier.create () in
  List.iter (Classifier.add t) rules;
  t

(* An oracle that never touches the tuple-space structures: a plain list
   scan with [matches] and [compare_rule]. *)
let oracle rules k =
  List.fold_left
    (fun best r ->
      if Classifier.matches r k then
        match best with
        | None -> Some r
        | Some b -> if Classifier.compare_rule r b < 0 then Some r else best
      else best)
    None rules

(* Seeded keys that actually intersect Gen's 10.0.0.0/8 rule space. *)
let gen_key rng =
  let a () =
    Int32.of_int
      ((10 lsl 24)
      lor (Sim.Rng.int rng 8 lsl 16)
      lor (1 + Sim.Rng.int rng 64))
  in
  {
    Packet.Flow.f_src = a ();
    f_src_port = 1024 + Sim.Rng.int rng 64;
    f_dst = a ();
    f_dst_port = (if Sim.Rng.int rng 2 = 0 then 80 else 443);
    f_proto = (if Sim.Rng.int rng 2 = 0 then 6 else 17);
    f_dscp = Sim.Rng.int rng 8 lsl 3;
  }

let pp_rule r =
  Format.asprintf "prio=%d src=%a/%d dst=%a/%d" r.Classifier.prio
    Packet.Ipv4.pp_addr r.Classifier.src r.Classifier.src_len
    Packet.Ipv4.pp_addr r.Classifier.dst r.Classifier.dst_len

let check_same_rule name a b =
  let show = function None -> "no match" | Some r -> pp_rule r in
  if
    match (a, b) with
    | None, None -> false
    | Some x, Some y -> Classifier.compare_rule x y <> 0
    | _ -> true
  then Alcotest.failf "%s: tuple-space %s, oracle %s" name (show a) (show b)

(* Basic semantics: prefixes, wildcards, priority. *)
let match_semantics () =
  let t = Classifier.create () in
  let r_any = Classifier.rule ~prio:50 Classifier.Accept in
  let r_net =
    Classifier.rule ~prio:10 ~dst:(addr "10.2.0.0", 16) Classifier.Drop
  in
  let r_host =
    Classifier.rule ~prio:10
      ~dst:(addr "10.2.0.2", 32)
      ~dst_port:80 (Classifier.Forward 3)
  in
  List.iter (Classifier.add t) [ r_any; r_net; r_host ];
  Alcotest.(check int) "3 rules" 3 (Classifier.n_rules t);
  check_same_rule "host+port beats net on content tie-break"
    (Classifier.lookup t (five ()))
    (Some r_host);
  check_same_rule "net rule for other hosts"
    (Classifier.lookup t (five ~dst:"10.2.0.9" ()))
    (Some r_net);
  check_same_rule "wildcard mops up"
    (Classifier.lookup t (five ~dst:"10.3.0.1" ()))
    (Some r_any);
  ignore (Classifier.remove t r_net);
  check_same_rule "removal exposes wildcard"
    (Classifier.lookup t (five ~dst:"10.2.0.9" ()))
    (Some r_any)

let insertion_is_idempotent () =
  let t = Classifier.create () in
  let r = Classifier.rule ~prio:5 ~dst:(addr "10.1.0.0", 16) Classifier.Drop in
  Classifier.add t r;
  Classifier.add t r;
  Alcotest.(check int) "one rule" 1 (Classifier.n_rules t);
  Alcotest.(check bool) "removed" true (Classifier.remove t r);
  Alcotest.(check bool) "second remove is false" false (Classifier.remove t r);
  Alcotest.(check int) "empty" 0 (Classifier.n_rules t);
  Alcotest.(check int) "no tuples" 0 (Classifier.n_tuples t)

(* The headline differential property: on any generated rule set and any
   key, the tuple-space search, the built-in linear scan, and an
   independent list-scan oracle all agree. *)
let differential_qcheck =
  QCheck.Test.make ~name:"tuple-space = linear oracle on random rule sets"
    ~count:60
    QCheck.(pair small_nat (int_bound 1_000_000))
    (fun (n, seed) ->
      let n = 1 + n in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let rules = Classifier.Gen.rules ~rng ~n () in
      let t = of_rules rules in
      let keys = List.init 40 (fun _ -> gen_key rng) in
      List.for_all
        (fun k ->
          let ts = Classifier.lookup t k in
          let lin = Classifier.lookup_linear t k in
          let orc = oracle rules k in
          let same a b =
            match (a, b) with
            | None, None -> true
            | Some x, Some y -> Classifier.compare_rule x y = 0
            | _ -> false
          in
          same ts lin && same ts orc)
        keys)

(* Priority stability: the winning rule must not depend on the order the
   rules were installed in. *)
let permutation_qcheck =
  QCheck.Test.make
    ~name:"decisions invariant under rule insertion-order permutation"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let rules = Classifier.Gen.rules ~rng ~n:60 () in
      let shuffled =
        let arr = Array.of_list rules in
        for i = Array.length arr - 1 downto 1 do
          let j = Sim.Rng.int rng (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      let a = of_rules rules and b = of_rules shuffled in
      List.for_all
        (fun k ->
          match (Classifier.lookup a k, Classifier.lookup b k) with
          | None, None -> true
          | Some x, Some y -> Classifier.compare_rule x y = 0
          | _ -> false)
        (List.init 50 (fun _ -> gen_key rng)))

(* Churn fuzz: 10k interleaved add/remove/lookup operations; every
   lookup is checked against the oracle over the live rule list, so one
   stale cache entry surviving a write that changed its answer fails
   loudly. *)
let churn_staleness_audit () =
  let ops = 10_000 in
  let rng = Sim.Rng.create 2026L in
  let pool =
    Array.of_list (Classifier.Gen.rules ~rng ~n:300 ())
  in
  let t = Classifier.create ~cache_capacity:256 () in
  let live = Hashtbl.create 64 in
  let stale = ref 0 in
  (* A small key pool so lookups repeat and the cache is genuinely in
     the line of fire across rule writes. *)
  let key_pool = Array.init 48 (fun _ -> gen_key rng) in
  for _ = 1 to ops do
    match Sim.Rng.int rng 4 with
    | 0 ->
        let r = Sim.Rng.pick rng pool in
        Classifier.add t r;
        Hashtbl.replace live r ()
    | 1 ->
        let r = Sim.Rng.pick rng pool in
        if Classifier.remove t r then Hashtbl.remove live r
        else if Hashtbl.mem live r then
          Alcotest.failf "remove lost a live rule: %s" (pp_rule r)
    | _ ->
        let k = Sim.Rng.pick rng key_pool in
        let expect =
          oracle (Hashtbl.fold (fun r () acc -> r :: acc) live []) k
        in
        let got = Classifier.lookup t k in
        let same =
          match (got, expect) with
          | None, None -> true
          | Some x, Some y -> Classifier.compare_rule x y = 0
          | _ -> false
        in
        if not same then incr stale
  done;
  Alcotest.(check int) "0 stale or divergent answers in 10k ops" 0 !stale;
  Alcotest.(check int) "rule count tracks the live set"
    (Hashtbl.length live) (Classifier.n_rules t);
  Alcotest.(check bool) "cache exercised" true (Classifier.cache_hits t > 0)

(* The cache is an accelerator, not an oracle: repeated lookups hit it
   and return the identical rule. *)
let cache_transparency () =
  let rng = Sim.Rng.create 7L in
  let t = of_rules (Classifier.Gen.rules ~rng ~n:100 ()) in
  let keys = Array.init 20 (fun _ -> gen_key rng) in
  let first = Array.map (Classifier.lookup t) keys in
  let misses = Classifier.cache_misses t in
  Array.iteri
    (fun i k -> check_same_rule "cached answer" (Classifier.lookup t k) first.(i))
    keys;
  Alcotest.(check int) "second pass all hits" misses (Classifier.cache_misses t);
  Alcotest.(check int) "20 hits" 20 (Classifier.cache_hits t)

(* A rule write invalidates only the cached flows the written rule
   matches: an add or a remove can change no other key's answer, so
   every other entry keeps serving hits.  A full flush on each write
   fails the unrelated-key checks; a write that invalidates too little
   serves the pre-write answer. *)
let write_locality () =
  let base = Classifier.rule ~prio:5 Classifier.Accept in
  let shadow =
    Classifier.rule ~prio:1 ~dst:(addr "10.2.0.0", 16) Classifier.Drop
  in
  let t = of_rules [ base ] in
  let a = five ~dst:"10.2.0.2" () and b = five ~dst:"10.3.0.3" () in
  Alcotest.(check bool) "shadow matches A" true (Classifier.matches shadow a);
  Alcotest.(check bool) "shadow misses B" false (Classifier.matches shadow b);
  ignore (Classifier.lookup t a);
  ignore (Classifier.lookup t b);
  (* [lookup t k] must answer [expect], from the cache iff [hit]. *)
  let step name k ~hit expect =
    let h0 = Classifier.cache_hits t and m0 = Classifier.cache_misses t in
    check_same_rule name (Classifier.lookup t k) (Some expect);
    Alcotest.(check (pair int int))
      (name ^ ": (hits, misses) delta")
      (if hit then (1, 0) else (0, 1))
      (Classifier.cache_hits t - h0, Classifier.cache_misses t - m0)
  in
  step "warm A" a ~hit:true base;
  step "warm B" b ~hit:true base;
  Classifier.add t shadow;
  step "after add, B" b ~hit:true base;
  step "after add, A" a ~hit:false shadow;
  Alcotest.(check bool) "remove" true (Classifier.remove t shadow);
  step "after remove, A" a ~hit:false base;
  step "after remove, B" b ~hit:true base;
  (* Writes that change nothing invalidate nothing. *)
  Classifier.add t base;
  Alcotest.(check bool)
    "absent remove" false (Classifier.remove t shadow);
  Alcotest.(check bool)
    "absent wildcard remove" false
    (Classifier.remove t (Classifier.rule ~prio:9 Classifier.Drop));
  step "after no-op writes, A" a ~hit:true base;
  step "after no-op writes, B" b ~hit:true base

(* Admission: the declared probe ceiling is what the budget sees. *)
let admission_budget () =
  let cm = Router.Cost_model.default in
  let t = Classifier.create () in
  let fits max_probes =
    let f = Classifier.forwarder ~max_probes ~cm t in
    Router.Vrp.check Router.Vrp.prototype_budget (Router.Forwarder.cost f)
      ~state_bytes:f.Router.Forwarder.state_bytes
      ~slots:(Router.Forwarder.istore_slots f)
    = Ok ()
  in
  Alcotest.(check bool) "4-probe classifier fits the VRP budget" true (fits 4);
  Alcotest.(check bool) "24-probe classifier is over budget" false (fits 24)

(* A classified router delivers the identical schedule with activation
   coalescing on and off, at both batch capacities — the classifier
   cannot be a source of batch-dependent behaviour.  (The same relaxed
   equivalence gate as test_batch, with the classifier in the chain and
   the flows workload on the wire.) *)
let classified_delivery_identity () =
  let drive ~batch_mps ~coalesce =
    let config = { Router.default_config with Router.batch_mps } in
    let r = Router.create ~config () in
    Router.enable_delivery_digest r;
    if not coalesce then Sim.Engine.set_coalescing r.Router.engine false;
    for p = 0 to config.Router.n_ports - 1 do
      Router.add_route r
        (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
        ~port:p
    done;
    let cls = Classifier.create () in
    List.iter (Classifier.add cls)
      (Classifier.Gen.rules
         ~rng:(Sim.Rng.create 99L)
         ~n:64 ~n_ports:config.Router.n_ports ());
    (match
       Router.Iface.install r.Router.iface ~key:Packet.Flow.All
         ~fwdr:(Classifier.forwarder ~cm:config.Router.cm cls)
         ~where:Router.Iface.ME ()
     with
    | Ok _ -> ()
    | Error es -> Alcotest.failf "install: %s" (String.concat "; " es));
    Router.start r;
    let rng = Sim.Rng.create 4242L in
    for p = 0 to config.Router.n_ports - 1 do
      let rng = Sim.Rng.split rng in
      let fl =
        Workload.Flows.create ~rng
          { Workload.Flows.default with pps = 120_000.; n_hosts = 4096 }
      in
      ignore
        (Workload.Flows.spawn fl r.Router.engine
           ~name:(Printf.sprintf "gen%d" p)
           ~offer:(fun f -> Router.inject r ~port:p f))
    done;
    Router.run_for r ~us:400.;
    Alcotest.(check bool) "no invariant violations" true
      (Fault.Invariant.ok r.Router.invariants);
    (Router.delivered_total r, Router.port_delivery_digests r)
  in
  List.iter
    (fun batch_mps ->
      let d, g = drive ~batch_mps ~coalesce:true in
      let d', g' = drive ~batch_mps ~coalesce:false in
      Alcotest.(check bool)
        (Printf.sprintf "batch=%d delivered something" batch_mps)
        true (d > 0);
      Alcotest.(check int)
        (Printf.sprintf "batch=%d same delivery count" batch_mps)
        d d';
      Alcotest.(check (array string))
        (Printf.sprintf "batch=%d identical schedules" batch_mps)
        g g')
    [ 1; 16 ]

(* Tiny flow caches under rule writes: with 1-16 entries the cache
   flushes and refills all through the run, while rule writes mark
   entries stale between repeats of one key.  Every answer must still be
   the linear scan's. *)
let small_cache_qcheck =
  QCheck.Test.make ~name:"1-16 entry caches = linear oracle" ~count:50
    QCheck.(pair int64 (int_range 1 16))
    (fun (seed, capacity) ->
      let rng = Sim.Rng.create seed in
      let rules = Classifier.Gen.rules ~rng ~n:200 () in
      let spare = Array.of_list (Classifier.Gen.rules ~rng ~n:20 ()) in
      let t = Classifier.create ~cache_capacity:capacity () in
      List.iter (Classifier.add t) rules;
      let keys =
        Array.init 12 (fun _ ->
            let a () =
              Printf.sprintf "10.%d.%d.%d" (Sim.Rng.int rng 256)
                (Sim.Rng.int rng 4) (1 + Sim.Rng.int rng 8)
            in
            five ~src:(a ()) ~dst:(a ())
              ~sport:(1024 + Sim.Rng.int rng 4)
              ~dport:(Sim.Rng.pick rng [| 80; 443; 53 |])
              ~proto:(Sim.Rng.pick rng [| 6; 17 |])
              ~dscp:(Sim.Rng.int rng 8 lsl 3) ())
      in
      let k = ref keys.(0) in
      for i = 1 to 400 do
        (* Runs of one key, as bursts of one flow arrive. *)
        if Sim.Rng.int rng 3 = 0 then k := Sim.Rng.pick rng keys;
        if i mod 37 = 0 then begin
          let r = Sim.Rng.pick rng spare in
          if Sim.Rng.bool rng then Classifier.add t r
          else ignore (Classifier.remove t r : bool)
        end;
        let got = Classifier.lookup t !k in
        let linear = Classifier.lookup_linear t !k in
        let same =
          match (got, linear) with
          | None, None -> true
          | Some a, Some b -> Classifier.compare_rule a b = 0
          | _ -> false
        in
        if not same then
          QCheck.Test.fail_reportf "lookup %d: the answer differs" i
      done;
      Classifier.cache_hits t > 0)

(* The tuple list is kept in order incrementally: after any sequence of
   adds and removes (duplicate adds, removals of absent rules, priority
   ties) every key gets the same rule, after the same number of tuple
   probes, as from a classifier built fresh from the surviving rules. *)
let incremental_order_qcheck =
  QCheck.Test.make
    ~name:"add/remove churn = fresh build, answers and probe counts"
    ~count:150
    QCheck.(
      pair (int_bound 1_000_000)
        (list_of_size (Gen.int_bound 150) (pair bool (int_bound 39))))
    (fun (seed, ops) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      (* Three priority levels over 40 rules: ties everywhere, and writes
         that move a tuple's best rule both ways. *)
      let pool =
        Array.of_list
          (List.mapi
             (fun i r -> { r with Classifier.prio = i mod 3 })
             (Classifier.Gen.rules ~rng ~n:40 ()))
      in
      let t = Classifier.create () in
      let live = Hashtbl.create 64 in
      List.iter
        (fun (add, i) ->
          let r = pool.(i) in
          if add then begin
            Classifier.add t r;
            Hashtbl.replace live r ()
          end
          else if Classifier.remove t r then Hashtbl.remove live r)
        ops;
      (* Best rule last, so the fresh build moves tuples on most adds. *)
      let fresh =
        of_rules
          (List.sort
             (fun a b -> Classifier.compare_rule b a)
             (Hashtbl.fold (fun r () acc -> r :: acc) live []))
      in
      let probed c k =
        let p0 = Classifier.probes c in
        let r = Classifier.lookup c k in
        (r, Classifier.probes c - p0)
      in
      Classifier.n_tuples t = Classifier.n_tuples fresh
      && Classifier.n_rules t = Classifier.n_rules fresh
      && List.for_all
           (fun k ->
             let a, pa = probed t k and b, pb = probed fresh k in
             pa = pb
             &&
             match (a, b) with
             | None, None -> true
             | Some x, Some y -> Classifier.compare_rule x y = 0
             | _ -> false)
           (List.init 60 (fun _ -> gen_key rng)))

(* Gen's rules and keys all live in 10.0.0.0/8 with mid-range ports, so
   they never set the top address bit (a negative [Int32]) or a field's
   top value.  This battery draws rules and keys from the edges of every
   field's wire width instead, where a packed key would first lose or
   alias a bit: addresses with the top bit set, /0 and /32 prefixes,
   ports 0 and 65535, protocol 255 and DSCP 63. *)
let edge_addrs =
  Array.map addr
    [|
      "0.0.0.0"; "0.0.0.1"; "10.1.2.3"; "127.255.255.255"; "128.0.0.0";
      "200.0.0.0"; "200.0.0.1"; "200.255.255.255"; "255.255.255.254";
      "255.255.255.255";
    |]

let edge_lens = [| 0; 1; 8; 24; 31; 32 |]
let edge_ports = [| 0; 1; 80; 32768; 65535 |]
let edge_protos = [| 0; 6; 17; 255 |]
let edge_dscps = [| 0; 46; 63 |]

(* Fixed rules at the field edges, present in every drawn set. *)
let edge_fixed =
  [
    Classifier.rule ~prio:3 ~src:(addr "200.0.0.0", 8) Classifier.Drop;
    Classifier.rule ~prio:3
      ~dst:(addr "255.255.255.255", 32)
      ~dst_port:65535 ~proto:255 (Classifier.Forward 1);
    Classifier.rule ~prio:3 ~src:(addr "255.255.255.255", 32) ~src_port:0
      ~dscp:63 (Classifier.Mark 63);
  ]

let edge_rule rng =
  let pick a = Sim.Rng.pick rng a in
  let opt v = if Sim.Rng.bool rng then Some (v ()) else None in
  Classifier.rule
    ~prio:(Sim.Rng.int rng 4)
    ~src:(pick edge_addrs, pick edge_lens)
    ~dst:(pick edge_addrs, pick edge_lens)
    ?src_port:(opt (fun () -> pick edge_ports))
    ?dst_port:(opt (fun () -> pick edge_ports))
    ?proto:(opt (fun () -> pick edge_protos))
    ?dscp:(opt (fun () -> pick edge_dscps))
    Classifier.Accept

let edge_key rng =
  let pick a = Sim.Rng.pick rng a in
  {
    Packet.Flow.f_src = pick edge_addrs;
    f_src_port = pick edge_ports;
    f_dst = pick edge_addrs;
    f_dst_port = pick edge_ports;
    f_proto = pick edge_protos;
    f_dscp = pick edge_dscps;
  }

let edge_differential_qcheck =
  QCheck.Test.make ~name:"edge-width keys and rules = linear oracle"
    ~count:150
    QCheck.(pair (int_bound 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let rules = edge_fixed @ List.init n (fun _ -> edge_rule rng) in
      let t = of_rules rules in
      let keys = List.init 60 (fun _ -> edge_key rng) in
      let agree k =
        let same a b =
          match (a, b) with
          | None, None -> true
          | Some x, Some y -> Classifier.compare_rule x y = 0
          | _ -> false
        in
        let orc = oracle rules k in
        same (Classifier.lookup t k) orc
        && same (Classifier.lookup_linear t k) orc
      in
      (* Twice over: the second pass answers from the flow cache. *)
      List.for_all agree keys && List.for_all agree keys
      && Classifier.cache_hits t > 0)

(* A key field beyond its wire width would spill into its neighbour's
   bits in the packed key: sport 65536 at 10.0.0.1 packs like sport 0 at
   10.0.0.2.  [lookup] must refuse such a key rather than serve (or
   cache) another key's answer, and [add] must refuse such a rule. *)
let wire_width_guard () =
  let host2 =
    Classifier.rule ~prio:1 ~src:(addr "10.0.0.2", 32) Classifier.Drop
  in
  let proto7 = Classifier.rule ~prio:1 ~proto:7 (Classifier.Forward 2) in
  let t = of_rules [ host2; proto7 ] in
  let in_width = five ~src:"10.0.0.2" ~sport:0 ~proto:6 () in
  let spill_sport = five ~src:"10.0.0.1" ~sport:65536 ~proto:6 () in
  let spill_dscp = five ~src:"10.9.9.9" ~proto:6 ~dscp:64 () in
  check_same_rule "in-width key" (Classifier.lookup t in_width) (Some host2);
  let refuses name k =
    match Classifier.lookup t k with
    | _ -> Alcotest.failf "lookup accepted the %s key" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, k) -> refuses name k)
    [
      ("sport 65536", spill_sport);
      ("dscp 64", spill_dscp);
      ("dport -1", five ~dport:(-1) ());
      ("proto 256", five ~proto:256 ());
    ];
  (* The oracle still answers them by field semantics: neither spills
     into a rule it does not match. *)
  check_same_rule "linear on sport spill"
    (Classifier.lookup_linear t spill_sport)
    None;
  check_same_rule "linear on dscp spill"
    (Classifier.lookup_linear t spill_dscp)
    None;
  (* Refused keys left nothing behind: the cached in-width answer is
     still its own, and the key dscp 64 would alias (proto 7, dscp 0)
     still gets that key's answer. *)
  check_same_rule "cached in-width key"
    (Classifier.lookup t in_width)
    (Some host2);
  check_same_rule "proto 7 key"
    (Classifier.lookup t (five ~src:"10.9.9.9" ~proto:7 ()))
    (Some proto7);
  let wide = { host2 with Classifier.src_port = Some 65536 } in
  (match Classifier.add t wide with
  | () -> Alcotest.fail "add accepted a 17-bit port"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool)
    "remove of a too-wide rule" false (Classifier.remove t wide);
  Alcotest.(check int) "rule set unchanged" 2 (Classifier.n_rules t)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      differential_qcheck;
      permutation_qcheck;
      incremental_order_qcheck;
      edge_differential_qcheck;
      small_cache_qcheck;
    ]

let tests =
  [
    Alcotest.test_case "match semantics" `Quick match_semantics;
    Alcotest.test_case "idempotent insert/remove" `Quick
      insertion_is_idempotent;
    Alcotest.test_case "10k-op churn staleness audit" `Quick
      churn_staleness_audit;
    Alcotest.test_case "cache transparency" `Quick cache_transparency;
    Alcotest.test_case "rule writes invalidate only matching flows" `Quick
      write_locality;
    Alcotest.test_case "admission budget" `Quick admission_budget;
    Alcotest.test_case "wire-width guard" `Quick wire_width_guard;
    Alcotest.test_case "classified delivery identity" `Quick
      classified_delivery_identity;
  ]
  @ qsuite
