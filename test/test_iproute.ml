(* Tests for prefixes, the route cache, the routing table and its
   longest-prefix-match engine (Poptrie), against the Btrie reference
   and a linear-scan specification. *)

let addr = Packet.Ipv4.addr_of_string

(* The route cache's key: the 32 address bits as a native int. *)
let key a = Int32.to_int a land 0xFFFFFFFF

(* [find c a] is the cache's one probe, with [None] for a miss. *)
let find c a = Iproute.Route_cache.find_or c (key a) ~default:None

let insert c a v = Iproute.Route_cache.insert c (key a) (Some v)

(* [cached t a] runs the data path's cached lookup: whether the cache
   line answered, and the next hop's port ([None] = no route). *)
let cached t a =
  let hit = ref false in
  let nh = Iproute.Table.lookup_cached t (key a) ~hit in
  ( !hit,
    if nh == Iproute.Table.no_route then None
    else Some nh.Iproute.Table.out_port )

let prefix_canonical () =
  let p = Iproute.Prefix.make (addr "10.1.2.3") 16 in
  Alcotest.(check string) "host bits cleared" "10.1.0.0/16"
    (Format.asprintf "%a" Iproute.Prefix.pp p)

let prefix_matches () =
  let p = Iproute.Prefix.of_string "192.168.4.0/22" in
  Alcotest.(check bool) "inside" true (Iproute.Prefix.matches p (addr "192.168.7.255"));
  Alcotest.(check bool) "outside" false (Iproute.Prefix.matches p (addr "192.168.8.0"));
  Alcotest.(check bool) "default matches all" true
    (Iproute.Prefix.matches Iproute.Prefix.default (addr "255.255.255.255"))

let prefix_expand () =
  let p = Iproute.Prefix.of_string "10.0.0.0/8" in
  let e = Iproute.Prefix.expand p 10 in
  Alcotest.(check int) "4 expansions" 4 (List.length e);
  List.iter
    (fun q ->
      Alcotest.(check int) "length" 10 (Iproute.Prefix.length q);
      Alcotest.(check bool) "covered" true
        (Iproute.Prefix.matches p (Iproute.Prefix.addr q)))
    e

let btrie_basic () =
  let t = Iproute.Btrie.empty in
  let t = Iproute.Btrie.add t (Iproute.Prefix.of_string "10.0.0.0/8") "a" in
  let t = Iproute.Btrie.add t (Iproute.Prefix.of_string "10.1.0.0/16") "b" in
  let t = Iproute.Btrie.add t Iproute.Prefix.default "d" in
  let get a =
    match Iproute.Btrie.lookup t (addr a) with
    | Some (_, v) -> v
    | None -> "none"
  in
  Alcotest.(check string) "longest wins" "b" (get "10.1.9.9");
  Alcotest.(check string) "shorter" "a" (get "10.2.0.1");
  Alcotest.(check string) "default" "d" (get "11.0.0.1");
  let t = Iproute.Btrie.remove t (Iproute.Prefix.of_string "10.1.0.0/16") in
  Alcotest.(check string) "after remove" "a"
    (match Iproute.Btrie.lookup t (addr "10.1.9.9") with
    | Some (_, v) -> v
    | None -> "none")

let random_prefix rng =
  let len = 1 + Sim.Rng.int rng 32 in
  Iproute.Prefix.make (Sim.Rng.int32 rng) len

(* The linear scan is the obviously-correct specification. *)
let linear_lookup bindings a =
  List.fold_left
    (fun acc (p, v) ->
      if Iproute.Prefix.matches p a then
        match acc with
        | Some (q, _) when Iproute.Prefix.length q >= Iproute.Prefix.length p
          ->
            acc
        | _ -> Some (p, v)
      else acc)
    None bindings

let dedup bindings =
  List.fold_left
    (fun acc (p, v) ->
      if List.exists (fun (q, _) -> Iproute.Prefix.equal p q) acc then acc
      else (p, v) :: acc)
    [] bindings

let engines_agree =
  QCheck.Test.make ~name:"btrie = poptrie = linear, random FIBs" ~count:60
    QCheck.(pair int64 (int_range 1 60))
    (fun (seed, n) ->
      let rng = Sim.Rng.create seed in
      let bindings =
        dedup (List.init n (fun i -> (random_prefix rng, i)))
      in
      let bt =
        List.fold_left
          (fun t (p, v) -> Iproute.Btrie.add t p v)
          Iproute.Btrie.empty bindings
      in
      let pop = Iproute.Poptrie.create () in
      List.iter (fun (p, v) -> Iproute.Poptrie.add pop p v) bindings;
      let ok = ref true in
      for _ = 1 to 200 do
        let a = Sim.Rng.int32 rng in
        let expect = Option.map snd (linear_lookup bindings a) in
        let got_bt = Option.map snd (Iproute.Btrie.lookup bt a) in
        let got_pop = Option.map snd (Iproute.Poptrie.lookup pop a) in
        if got_bt <> expect || got_pop <> expect then ok := false
      done;
      !ok)

let poptrie_remove () =
  (* Both prefixes are shorter than the jump table's 18 bits: the first
     lookup caches the /9 in a jump slot, so removing the /9 must clear
     that slot for the second lookup to find the /8. *)
  let p1 = Iproute.Prefix.of_string "10.0.0.0/8" in
  let p2 = Iproute.Prefix.of_string "10.128.0.0/9" in
  let t = Iproute.Poptrie.create () in
  Iproute.Poptrie.add t p1 1;
  Iproute.Poptrie.add t p2 2;
  Alcotest.(check (option int)) "longest" (Some 2)
    (Option.map snd (Iproute.Poptrie.lookup t (addr "10.200.0.1")));
  Iproute.Poptrie.remove t p2;
  Alcotest.(check (option int)) "fallback" (Some 1)
    (Option.map snd (Iproute.Poptrie.lookup t (addr "10.200.0.1")));
  Alcotest.(check int) "size" 1 (Iproute.Poptrie.size t)

let route_cache_behavior () =
  let c = Iproute.Route_cache.create ~slots:4 () in
  Alcotest.(check (option int)) "empty miss" None (find c (addr "10.0.0.1"));
  insert c (addr "10.0.0.1") 7;
  Alcotest.(check (option int)) "hit" (Some 7) (find c (addr "10.0.0.1"));
  Iproute.Route_cache.invalidate c;
  Alcotest.(check (option int)) "after invalidate" None
    (find c (addr "10.0.0.1"));
  Alcotest.(check int) "misses counted" 2 (Iproute.Route_cache.misses c);
  Alcotest.(check int) "hits counted" 1 (Iproute.Route_cache.hits c)

let table_cached_lookup () =
  let t = Iproute.Table.create () in
  Iproute.Table.add t
    (Iproute.Prefix.of_string "10.0.0.0/8")
    { Iproute.Table.out_port = 3; gateway_mac = 0x020000000001 };
  let a = addr "10.5.5.5" in
  let check name want got =
    Alcotest.(check (pair bool (option int))) name want got
  in
  check "refill miss" (false, Some 3) (cached t a);
  check "hit" (true, Some 3) (cached t a);
  Iproute.Table.remove t (Iproute.Prefix.of_string "10.0.0.0/8");
  check "miss after remove (cache invalidated)" (false, None) (cached t a);
  check "no route is never cached" (false, None) (cached t a)

let table_engines_consistent () =
  (* The table's engine against the Btrie reference on one table. *)
  let routes = [ ("0.0.0.0/0", 0); ("10.0.0.0/8", 1); ("10.64.0.0/10", 2) ] in
  let t = Iproute.Table.create () in
  List.iter
    (fun (s, p) ->
      Iproute.Table.add t (Iproute.Prefix.of_string s)
        { Iproute.Table.out_port = p; gateway_mac = 0 })
    routes;
  let bt =
    List.fold_left
      (fun bt (s, p) -> Iproute.Btrie.add bt (Iproute.Prefix.of_string s) p)
      Iproute.Btrie.empty routes
  in
  List.iter
    (fun (a, expect) ->
      let what = Format.asprintf "%a" Packet.Ipv4.pp_addr a in
      Alcotest.(check (option int)) ("btrie " ^ what) expect
        (Option.map snd (Iproute.Btrie.lookup bt a));
      Alcotest.(check (option int)) ("table " ^ what) expect
        (Option.map
           (fun nh -> nh.Iproute.Table.out_port)
           (Iproute.Table.lookup t a)))
    [
      (addr "10.65.0.1", Some 2);
      (addr "10.1.0.1", Some 1);
      (addr "8.8.8.8", Some 0);
    ]

let pfx_of = Iproute.Prefix.of_string

let selective_invalidation_scope () =
  let t = Iproute.Table.create ~selective_invalidation:true () in
  let nh p = { Iproute.Table.out_port = p; gateway_mac = 0 } in
  Iproute.Table.add t (pfx_of "10.1.0.0/16") (nh 1);
  Iproute.Table.add t (pfx_of "10.2.0.0/16") (nh 2);
  let check name want a =
    Alcotest.(check (pair bool (option int))) name want (cached t (addr a))
  in
  (* Warm both cache lines. *)
  check "cold 10.1" (false, Some 1) "10.1.0.5";
  check "cold 10.2" (false, Some 2) "10.2.0.5";
  check "warm 10.1" (true, Some 1) "10.1.0.5";
  (* A change to an unrelated prefix must not evict either line... *)
  Iproute.Table.add t (pfx_of "192.168.0.0/16") (nh 3);
  check "unrelated change kept 10.1" (true, Some 1) "10.1.0.5";
  (* ...but a change covering 10.2 must evict exactly that line. *)
  Iproute.Table.add t (pfx_of "10.2.0.0/24") (nh 4);
  check "10.2 evicted, the more specific now wins" (false, Some 4) "10.2.0.5";
  check "10.1 survived" (true, Some 1) "10.1.0.5"

(* Differential check of Poptrie and Btrie against the linear
   specification on one table, over [n_addrs] addresses biased toward
   actual table hits (uniform random addresses mostly exercise only the
   default route). *)
let check_engines_on ~what ~rng ~n_addrs bindings =
  let bt =
    List.fold_left
      (fun t (p, v) -> Iproute.Btrie.add t p v)
      Iproute.Btrie.empty bindings
  in
  let pop = Iproute.Poptrie.create () in
  List.iter (fun (p, v) -> Iproute.Poptrie.add pop p v) bindings;
  for i = 1 to n_addrs do
    let a =
      if i mod 2 = 0 || bindings = [] then Sim.Rng.int32 rng
      else Iproute.Gen.matching_addr ~rng bindings
    in
    let expect = Option.map snd (linear_lookup bindings a) in
    let say engine got =
      Alcotest.(check (option int))
        (Format.asprintf "%s: %s on %a" what engine Packet.Ipv4.pp_addr a)
        expect got
    in
    say "btrie" (Option.map snd (Iproute.Btrie.lookup bt a));
    say "poptrie" (Option.map snd (Iproute.Poptrie.lookup pop a))
  done

let engines_agree_realistic () =
  (* Generated /24-heavy tables of ~1000 routes, each with a default route
     and a deliberately overlapping chain of nested prefixes, checked over
     thousands of addresses per seed.  A failure names the seed. *)
  List.iter
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let base = Iproute.Gen.table ~rng ~n:1000 ~n_ports:8 in
      let overlapping =
        List.map
          (fun s -> (pfx_of s, 1000 + String.length s))
          [
            "10.0.0.0/8"; "10.64.0.0/10"; "10.64.0.0/16"; "10.64.32.0/20";
            "10.64.32.0/24"; "10.64.32.128/25"; "10.64.32.129/32";
          ]
      in
      let bindings =
        dedup ((Iproute.Prefix.default, 999) :: (overlapping @ base))
      in
      check_engines_on
        ~what:(Printf.sprintf "seed %Ld" seed)
        ~rng ~n_addrs:2000 bindings;
      (* The nested chain specifically: walk addresses at each nesting
         depth so every length on the chain wins at least once. *)
      List.iter
        (fun (a, expect) ->
          Alcotest.(check (option int))
            (Printf.sprintf "seed %Ld: chain depth %s" seed a)
            (Some expect)
            (Option.map snd (linear_lookup bindings (addr a))))
        [
          ("10.200.0.1", 1000 + String.length "10.0.0.0/8");
          ("10.65.0.1", 1000 + String.length "10.64.0.0/10");
          ("10.64.200.1", 1000 + String.length "10.64.0.0/16");
          ("10.64.40.1", 1000 + String.length "10.64.32.0/20");
          ("10.64.32.1", 1000 + String.length "10.64.32.0/24");
          ("10.64.32.200", 1000 + String.length "10.64.32.128/25");
          ("10.64.32.129", 1000 + String.length "10.64.32.129/32");
        ])
    [ 5L; 17L ]

let engines_agree_default_only () =
  (* Degenerate tables: only a default route, and entirely empty — the
     edges where a longest-prefix walk is most likely to mishandle
     length-0 matches. *)
  let rng = Sim.Rng.create 3L in
  check_engines_on ~what:"default-only" ~rng ~n_addrs:200
    [ (Iproute.Prefix.default, 7) ];
  check_engines_on ~what:"empty" ~rng ~n_addrs:200 []

let generated_table_shape () =
  let rng = Sim.Rng.create 99L in
  let bindings = Iproute.Gen.table ~rng ~n:1000 ~n_ports:8 in
  Alcotest.(check int) "count" 1000 (List.length bindings);
  let distinct = dedup bindings in
  Alcotest.(check int) "distinct" 1000 (List.length distinct);
  let n24 =
    List.length
      (List.filter (fun (p, _) -> Iproute.Prefix.length p = 24) bindings)
  in
  Alcotest.(check bool)
    (Printf.sprintf "/24-heavy (%d/1000)" n24)
    true
    (n24 > 400 && n24 < 700);
  (* Every generated hit-address matches some entry more specific than the
     default route most of the time. *)
  let bt =
    List.fold_left
      (fun t (p, v) -> Iproute.Btrie.add t p v)
      Iproute.Btrie.empty bindings
  in
  let hits = ref 0 in
  for _ = 1 to 200 do
    let a = Iproute.Gen.matching_addr ~rng bindings in
    match Iproute.Btrie.lookup bt a with
    | Some (p, _) when Iproute.Prefix.length p > 0 -> incr hits
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mostly specific hits (%d/200)" !hits)
    true (!hits > 150)

(* ---- Poptrie: the compressed FIB, differentially against Btrie ---- *)

let poptrie_basic () =
  let t = Iproute.Poptrie.create () in
  Alcotest.(check bool) "empty" true (Iproute.Poptrie.is_empty t);
  let chain =
    [ ("0.0.0.0/0", 0); ("10.0.0.0/8", 1); ("10.64.0.0/10", 2);
      ("10.64.0.0/16", 3); ("10.64.32.0/20", 4); ("10.64.32.0/24", 5);
      ("10.64.32.128/25", 6); ("10.64.32.129/32", 7) ]
  in
  List.iter (fun (s, v) -> Iproute.Poptrie.add t (pfx_of s) v) chain;
  Alcotest.(check int) "size" 8 (Iproute.Poptrie.size t);
  let get a = Option.map snd (Iproute.Poptrie.lookup t (addr a)) in
  Alcotest.(check (option int)) "/32 wins" (Some 7) (get "10.64.32.129");
  Alcotest.(check (option int)) "/25" (Some 6) (get "10.64.32.200");
  Alcotest.(check (option int)) "/24" (Some 5) (get "10.64.32.1");
  Alcotest.(check (option int)) "/20" (Some 4) (get "10.64.40.1");
  Alcotest.(check (option int)) "/16" (Some 3) (get "10.64.200.1");
  Alcotest.(check (option int)) "/10" (Some 2) (get "10.65.0.1");
  Alcotest.(check (option int)) "/8" (Some 1) (get "10.200.0.1");
  Alcotest.(check (option int)) "default" (Some 0) (get "8.8.8.8");
  (* the winning prefix itself comes back, not just the value *)
  (match Iproute.Poptrie.lookup t (addr "10.64.32.200") with
  | Some (p, _) ->
      Alcotest.(check bool) "winning prefix" true
        (Iproute.Prefix.equal p (pfx_of "10.64.32.128/25"))
  | None -> Alcotest.fail "expected a match");
  Alcotest.(check (option int)) "exact find" (Some 4)
    (Iproute.Poptrie.find t (pfx_of "10.64.32.0/20"));
  Alcotest.(check (option reject)) "absent find" None
    (Iproute.Poptrie.find t (pfx_of "10.64.0.0/12"));
  Iproute.Poptrie.remove t (pfx_of "10.64.32.129/32");
  Alcotest.(check (option int)) "fallback after remove" (Some 6)
    (get "10.64.32.129");
  Iproute.Poptrie.add t (pfx_of "10.64.32.129/32") 99;
  Alcotest.(check (option int)) "re-add" (Some 99) (get "10.64.32.129");
  Iproute.Poptrie.add t (pfx_of "10.64.32.129/32") 100;
  Alcotest.(check (option int)) "replace" (Some 100) (get "10.64.32.129");
  Alcotest.(check int) "size stable under replace" 8
    (Iproute.Poptrie.size t);
  Alcotest.(check bool) "lookups bounded by 6 nodes" true
    (Iproute.Poptrie.depth t (addr "10.64.32.129") <= 6)

(* Shrinking-friendly op encoding: a handful of address patterns times
   every length 0..32, so random sequences alias heavily (same prefix
   re-added, nested chains, /0 and /32 endpoints) and QCheck can shrink
   a failure to a minimal op list. *)
let op_prefix key len =
  Iproute.Prefix.make (Int32.of_int ((key * 0x91E2D3C5) land 0xFFFFFFFF)) len

let apply_ops ops =
  let pop = Iproute.Poptrie.create () in
  let bt = ref Iproute.Btrie.empty in
  let check_full () =
    if Iproute.Poptrie.size pop <> Iproute.Btrie.size !bt then false
    else begin
      let norm l =
        List.sort
          (fun (p, a) (q, b) ->
            let c = Iproute.Prefix.compare p q in
            if c <> 0 then c else compare a b)
          l
      in
      norm (Iproute.Poptrie.bindings pop) = norm (Iproute.Btrie.bindings !bt)
      && List.for_all
           (fun key ->
             List.for_all
               (fun len ->
                 let p = op_prefix key len in
                 Iproute.Poptrie.find pop p = Iproute.Btrie.find !bt p
                 && Option.map snd
                      (Iproute.Poptrie.lookup pop (Iproute.Prefix.addr p))
                    = Option.map snd
                        (Iproute.Btrie.lookup !bt (Iproute.Prefix.addr p)))
               [ 0; 1; 7; 8; 20; 24; 31; 32 ])
           [ 0; 1; 2; 3; 5; 9; 15 ]
    end
  in
  let ok = ref true in
  List.iteri
    (fun i (is_add, key, len) ->
      let p = op_prefix key len in
      if is_add then begin
        Iproute.Poptrie.add pop p i;
        bt := Iproute.Btrie.add !bt p i
      end
      else begin
        Iproute.Poptrie.remove pop p;
        bt := Iproute.Btrie.remove !bt p
      end;
      if Iproute.Poptrie.size pop <> Iproute.Btrie.size !bt then ok := false;
      if i mod 25 = 24 && not (check_full ()) then ok := false)
    ops;
  !ok && check_full ()

let poptrie_diff_ops =
  QCheck.Test.make ~name:"poptrie = btrie under random add/remove ops"
    ~count:120
    QCheck.(
      list_of_size (Gen.int_bound 300)
        (triple bool (int_bound 15) (int_bound 32)))
    apply_ops

let poptrie_million () =
  (* The acceptance battery: a 1M-prefix BGP-shaped table, differential
     against Btrie on lookup/find/size, then incremental churn
     (withdraw + re-announce + fresh more-specifics) with the same
     equivalences re-checked — all from one seed. *)
  let rng = Sim.Rng.create 20010L in
  let n = 1_000_000 in
  let base = Iproute.Gen.bgp_table ~rng ~n ~n_ports:16 in
  Alcotest.(check int) "generated" n (Array.length base);
  let pop = Iproute.Poptrie.create () in
  Array.iter (fun (p, v) -> Iproute.Poptrie.add pop p v) base;
  let bt = ref Iproute.Btrie.empty in
  Array.iter (fun (p, v) -> bt := Iproute.Btrie.add !bt p v) base;
  Alcotest.(check int) "size = btrie size" (Iproute.Btrie.size !bt)
    (Iproute.Poptrie.size pop);
  let check_addrs what k =
    for i = 1 to k do
      let a =
        if i mod 2 = 0 then Sim.Rng.int32 rng else Iproute.Gen.hit_addr ~rng base
      in
      Alcotest.(check (option int))
        (Format.asprintf "%s %a" what Packet.Ipv4.pp_addr a)
        (Option.map snd (Iproute.Btrie.lookup !bt a))
        (Option.map snd (Iproute.Poptrie.lookup pop a))
    done
  in
  check_addrs "static" 20_000;
  (* exact-match spot checks *)
  for _ = 1 to 2_000 do
    let p, _ = Sim.Rng.pick rng base in
    Alcotest.(check (option int))
      (Format.asprintf "find %a" Iproute.Prefix.pp p)
      (Iproute.Btrie.find !bt p)
      (Iproute.Poptrie.find pop p)
  done;
  (* compression telemetry: the whole point of the bitmap encoding *)
  let pn = Iproute.Poptrie.node_count pop in
  let bn = Iproute.Btrie.node_count !bt in
  Alcotest.(check bool)
    (Printf.sprintf "compressed (%d poptrie vs %d btrie nodes)" pn bn)
    true
    (pn * 4 < bn);
  (* incremental churn, no rebuild: the update path the RIP daemon takes *)
  let ops = Iproute.Gen.churn ~rng ~base ~n_ports:16 ~steps:30_000 in
  Array.iter
    (fun op ->
      match op with
      | Iproute.Gen.Announce (p, v) ->
          Iproute.Poptrie.add pop p v;
          bt := Iproute.Btrie.add !bt p v
      | Iproute.Gen.Withdraw p ->
          Iproute.Poptrie.remove pop p;
          bt := Iproute.Btrie.remove !bt p)
    ops;
  Alcotest.(check int) "size after churn" (Iproute.Btrie.size !bt)
    (Iproute.Poptrie.size pop);
  check_addrs "post-churn" 20_000

let covered_invalidation_unit () =
  (* invalidate_covered takes the narrow fast path for long prefixes and
     the full-scan fallback for short ones; both must evict exactly the
     covered lines. *)
  let mk () =
    let c = Iproute.Route_cache.create ~slots:256 () in
    List.iter
      (fun a -> insert c (addr a) a)
      [ "10.1.2.3"; "10.1.2.4"; "10.2.0.1"; "192.168.0.1" ];
    c
  in
  let c = mk () in
  let cost0 = Iproute.Route_cache.scan_cost c in
  Iproute.Route_cache.invalidate_covered c (pfx_of "10.1.2.3/32");
  Alcotest.(check int) "one probe for a /32" 1
    (Iproute.Route_cache.scan_cost c - cost0);
  Alcotest.(check (option string)) "victim gone" None
    (find c (addr "10.1.2.3"));
  Alcotest.(check (option string)) "sibling kept" (Some "10.1.2.4")
    (find c (addr "10.1.2.4"));
  Alcotest.(check (option string)) "unrelated kept" (Some "192.168.0.1")
    (find c (addr "192.168.0.1"));
  let c = mk () in
  Iproute.Route_cache.invalidate_covered c (pfx_of "10.0.0.0/8");
  Alcotest.(check bool) "/8 falls back to a full scan" true
    (Iproute.Route_cache.scan_cost c >= 256);
  Alcotest.(check (option string)) "covered gone" None
    (find c (addr "10.2.0.1"));
  Alcotest.(check (option string)) "uncovered kept" (Some "192.168.0.1")
    (find c (addr "192.168.0.1"))

let covered_equiv =
  QCheck.Test.make
    ~name:"invalidate_covered = invalidate_matching on random caches"
    ~count:200
    QCheck.(triple int64 (int_bound 32) (int_range 1 60))
    (fun (seed, len, nkeys) ->
      let rng = Sim.Rng.create seed in
      let p = Iproute.Prefix.make (Sim.Rng.int32 rng) len in
      let keys = List.init nkeys (fun _ -> Sim.Rng.int32 rng) in
      (* bias half the keys inside the prefix so eviction actually fires *)
      let keys =
        keys
        @ List.mapi
            (fun i k ->
              if i mod 2 = 0 then
                Int32.logor (Iproute.Prefix.addr p)
                  (Int32.logand k
                     (if Iproute.Prefix.length p = 0 then -1l
                      else
                        Int32.of_int
                          ((1 lsl min 30 (32 - Iproute.Prefix.length p)) - 1)))
              else k)
            keys
      in
      let fill () =
        let c = Iproute.Route_cache.create ~slots:64 () in
        List.iteri (fun i k -> insert c k i) keys;
        c
      in
      let a = fill () and b = fill () in
      Iproute.Route_cache.invalidate_covered a p;
      Iproute.Route_cache.invalidate_matching b (Iproute.Prefix.matches p);
      List.for_all
        (fun k -> find a k = find b k)
        keys)

let table_covered_invalidation () =
  (* End-to-end through Table: a /32 route change costs one cache probe
     and leaves every unrelated warm line untouched. *)
  let t =
    Iproute.Table.create ~cache_slots:4096 ~selective_invalidation:true ()
  in
  let nh p = { Iproute.Table.out_port = p; gateway_mac = 0 } in
  Iproute.Table.add t (pfx_of "10.0.0.0/8") (nh 1);
  let warm i = cached t (addr (Printf.sprintf "10.7.%d.1" i)) in
  for i = 0 to 99 do
    ignore (warm i)
  done;
  let cost0 = Iproute.Table.cache_scan_cost t in
  Iproute.Table.add t (pfx_of "10.9.9.9/32") (nh 2);
  Alcotest.(check int) "a /32 change probes exactly one line" 1
    (Iproute.Table.cache_scan_cost t - cost0);
  let survivors = ref 0 in
  for i = 0 to 99 do
    if fst (warm i) then incr survivors
  done;
  Alcotest.(check int) "no unrelated line flushed" 100 !survivors

let table_size_counts_routes () =
  (* [size] is the engine's count; it must track installs,
     replacements and removals exactly. *)
  let rng = Sim.Rng.create 23L in
  let base = Iproute.Gen.bgp_table ~rng ~n:20_000 ~n_ports:8 in
  let t = Iproute.Table.create () in
  let nh port = { Iproute.Table.out_port = port; gateway_mac = 0 } in
  Array.iter (fun (p, v) -> Iproute.Table.add t p (nh v)) base;
  Array.iteri
    (fun i (p, _) -> if i mod 7 = 0 then Iproute.Table.add t p (nh 9))
    base;
  Array.iter
    (function
      | Iproute.Gen.Announce (p, v) -> Iproute.Table.add t p (nh v)
      | Iproute.Gen.Withdraw p -> Iproute.Table.remove t p)
    (Iproute.Gen.churn ~rng ~base ~n_ports:8 ~steps:5_000);
  (* The second removal is of an absent route. *)
  Iproute.Table.remove t (pfx_of "203.0.113.77/32");
  Iproute.Table.remove t (pfx_of "203.0.113.77/32");
  Alcotest.(check int) "size = bindings"
    (List.length (Iproute.Table.bindings t))
    (Iproute.Table.size t)

(* The router's route cache has 8192 lines. *)
let router_cache_slots = 8192

let cold_install_scan_cost () =
  (* Loading a table before traffic costs the engine writes alone: with
     the cache empty no route change scans or clears a line, selective
     or not.  Once the cache is warm, one non-selective change clears
     every slot once, and the next change finds the cache empty again. *)
  let base =
    Iproute.Gen.bgp_table ~rng:(Sim.Rng.create 11L) ~n:100_000 ~n_ports:8
  in
  List.iter
    (fun selective_invalidation ->
      let config = { Router.default_config with selective_invalidation } in
      let r = Router.create ~config () in
      let routes = r.Router.routes in
      Array.iter (fun (p, port) -> Router.add_route r p ~port) base;
      Alcotest.(check int)
        (Printf.sprintf "cold install scans nothing (selective=%b)"
           selective_invalidation)
        0
        (Iproute.Table.cache_scan_cost routes);
      Alcotest.(check int) "every route installed" (Array.length base)
        (Iproute.Table.size routes);
      if not selective_invalidation then begin
        let rng = Sim.Rng.create 12L in
        for _ = 1 to 1_000 do
          ignore (cached routes (Iproute.Gen.hit_addr ~rng base))
        done;
        Router.add_route r (fst base.(1)) ~port:0;
        Alcotest.(check int) "one warm change clears every slot"
          router_cache_slots
          (Iproute.Table.cache_scan_cost routes);
        Router.add_route r (fst base.(2)) ~port:0;
        Alcotest.(check int) "the next change finds it empty"
          router_cache_slots
          (Iproute.Table.cache_scan_cost routes)
      end)
    [ false; true ]

let bgp_table_shape () =
  let rng = Sim.Rng.create 7L in
  let n = 50_000 in
  let base = Iproute.Gen.bgp_table ~rng ~n ~n_ports:16 in
  Alcotest.(check int) "count" n (Array.length base);
  let seen = Hashtbl.create (2 * n) in
  Array.iter (fun (p, _) -> Hashtbl.replace seen p ()) base;
  Alcotest.(check int) "distinct" n (Hashtbl.length seen);
  Alcotest.(check bool) "default at index 0" true
    (Iproute.Prefix.equal (fst base.(0)) Iproute.Prefix.default);
  let n24 =
    Array.fold_left
      (fun acc (p, _) -> if Iproute.Prefix.length p = 24 then acc + 1 else acc)
      0 base
  in
  Alcotest.(check bool)
    (Printf.sprintf "/24-heavy (%d/%d)" n24 n)
    true
    (float_of_int n24 > 0.4 *. float_of_int n
    && float_of_int n24 < 0.7 *. float_of_int n);
  (* determinism: the same seed reproduces the same table and churn *)
  let rng' = Sim.Rng.create 7L in
  let base' = Iproute.Gen.bgp_table ~rng:rng' ~n ~n_ports:16 in
  Alcotest.(check bool) "table deterministic" true (base = base');
  let ops = Iproute.Gen.churn ~rng ~base ~n_ports:16 ~steps:1000 in
  let ops' = Iproute.Gen.churn ~rng:rng' ~base:base' ~n_ports:16 ~steps:1000 in
  Alcotest.(check bool) "churn deterministic" true (ops = ops');
  let announces =
    Array.fold_left
      (fun acc op ->
        match op with Iproute.Gen.Announce _ -> acc + 1 | _ -> acc)
      0 ops
  in
  Alcotest.(check bool)
    (Printf.sprintf "churn mixes announce/withdraw (%d/1000 announce)"
       announces)
    true
    (announces > 200 && announces < 800)

(* ---- The generator's output, pinned ----

   Every benchmark table, FIB row and delivery digest is drawn from
   [Gen]; a change to how it rejects duplicates must not change a single
   route or RNG draw.  Each case hashes the routes in order, then the
   generator's next RNG draw (which pins how many draws it consumed),
   and compares with the digest the boxed-[Hashtbl] generator produced.

   The third case is the densest table the generator makes: one /8-/12
   block and 1021 routes drawn under it.  Even there at most a handful of
   draws in a row are duplicates (8 over 1000 seeds at n = 1023, at most
   8 over every n tried), so the [misses > 64] escape is never taken. *)

let generator_digest routes rng =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p, port) ->
      Printf.bprintf b "%d/%d:%d;" (Iproute.Prefix.bits p)
        (Iproute.Prefix.length p) port)
    routes;
  Printf.bprintf b "next=%Ld" (Sim.Rng.next rng);
  Digest.to_hex (Digest.string (Buffer.contents b))

let generator_output_pinned () =
  let bgp ~seed ~n =
    let rng = Sim.Rng.create seed in
    let routes = Iproute.Gen.bgp_table ~rng ~n ~n_ports:8 in
    generator_digest (Array.to_list routes) rng
  in
  let flat ~seed ~n =
    let rng = Sim.Rng.create seed in
    generator_digest (Iproute.Gen.table ~rng ~n ~n_ports:8) rng
  in
  Alcotest.(check string) "bgp_table n=20000"
    "c1e22172b53aed7c62a54172c632705b" (bgp ~seed:23L ~n:20_000);
  Alcotest.(check string) "table n=5000" "8fb99acf747b591673a7579f44dc31aa"
    (flat ~seed:5L ~n:5_000);
  Alcotest.(check string) "bgp_table n=1023 (one block)"
    "aff2df4b9e9463697cb57b5a8c9f0b8c" (bgp ~seed:3L ~n:1023)

(* ---- Route cache against a model that always flushes ----

   The cache skips invalidation while no line is occupied; the model
   below clears on every invalidation, so the two agree only if the
   cache's count of occupied lines is never wrong.  Both sides pick a
   line as [model_hash a mod model_slots]. *)

let model_slots = 8

let model_hash k = k lxor (k lsr 16)
let model_line a = model_hash (key a) mod model_slots

(* Sixteen addresses under 10.0.0.0/16: they collide on lines and repeat,
   and prefixes of every length cover a few of them. *)
let cache_key i = Int32.of_int (0x0A000000 lor ((i * i * 97) land 0xFFFF))

(* One address per line, to fill the cache. *)
let line_fillers =
  List.init model_slots (fun l ->
      let rec find j =
        let a = Int32.of_int (0x0A000000 lor j) in
        if model_line a = l then a else find (j + 1)
      in
      find 0)

type cache_op =
  | C_insert of Packet.Ipv4.addr * int
  | C_find of Packet.Ipv4.addr
  | C_flush
  | C_covered of Iproute.Prefix.t
  | C_matching of Iproute.Prefix.t

let cache_op_of (code, key, aux) =
  let a = cache_key key in
  match code with
  | 0 | 1 -> C_insert (a, aux)
  | 2 | 3 -> C_find a
  | 4 -> C_flush
  | 5 -> C_covered (Iproute.Prefix.make a aux)
  | _ -> C_matching (Iproute.Prefix.make a aux)

let run_against_model ops =
  let c = Iproute.Route_cache.create ~hash:model_hash ~slots:model_slots () in
  let keys = Array.make model_slots None and vals = Array.make model_slots 0 in
  let hits = ref 0 and misses = ref 0 and ok = ref true in
  let drop_if pred =
    Array.iteri
      (fun l k -> match k with Some a when pred a -> keys.(l) <- None | _ -> ())
      keys
  in
  let step = function
    | C_insert (a, v) ->
        insert c a v;
        keys.(model_line a) <- Some a;
        vals.(model_line a) <- v
    | C_find a ->
        let l = model_line a in
        let expect =
          if keys.(l) = Some a then begin
            incr hits;
            Some vals.(l)
          end
          else begin
            incr misses;
            None
          end
        in
        if find c a <> expect then ok := false
    | C_flush ->
        Iproute.Route_cache.invalidate c;
        drop_if (fun _ -> true)
    | C_covered p ->
        Iproute.Route_cache.invalidate_covered c p;
        drop_if (Iproute.Prefix.matches p)
    | C_matching p ->
        Iproute.Route_cache.invalidate_matching c (Iproute.Prefix.matches p);
        drop_if (Iproute.Prefix.matches p)
  in
  let find_all () = List.iter (fun a -> step (C_find a)) line_fillers in
  (* Empty cache: every invalidation is a no-op and every find misses. *)
  List.iter step
    [
      C_flush;
      C_covered (Iproute.Prefix.make (cache_key 3) 32);
      C_covered (Iproute.Prefix.make (cache_key 3) 8);
      C_matching (Iproute.Prefix.make (cache_key 5) 16);
      C_find (cache_key 3);
    ];
  List.iter step ops;
  (* A full cache, then a prefix wide enough to fall back to a scan. *)
  List.iteri (fun i a -> step (C_insert (a, 1000 + i))) line_fillers;
  if Array.exists Option.is_none keys then ok := false;
  find_all ();
  step (C_covered (Iproute.Prefix.make (List.hd line_fillers) 28));
  find_all ();
  List.iteri (fun i a -> step (C_insert (a, 2000 + i))) line_fillers;
  step C_flush;
  find_all ();
  !ok
  && Iproute.Route_cache.hits c = !hits
  && Iproute.Route_cache.misses c = !misses

let route_cache_model =
  QCheck.Test.make ~name:"route cache = always-flushing model" ~count:300
    QCheck.(
      list_of_size (Gen.int_bound 200)
        (triple (int_bound 6) (int_bound 15) (int_bound 32)))
    (fun ops -> run_against_model (List.map cache_op_of ops))

(* --- packed prefixes ------------------------------------------------------ *)

(* The int32 reference the packed representation must agree with. *)
let ref_mask len = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let ref_compare (a, l) (b, m) =
  let c = compare l m in
  if c <> 0 then c else Int32.unsigned_compare a b

(* Addresses that stress the packing: bit 31 set, all ones, zero, and
   random draws. *)
let draw_addr rng =
  match Sim.Rng.int rng 5 with
  | 0 -> Int32.logor 0x80000000l (Sim.Rng.int32 rng)
  | 1 -> Sim.Rng.pick rng [| 0l; -1l; 0x80000000l; 0x7FFFFFFFl; 1l |]
  | _ -> Sim.Rng.int32 rng

let draw_len rng =
  match Sim.Rng.int rng 4 with
  | 0 -> Sim.Rng.pick rng [| 0; 32 |]
  | _ -> Sim.Rng.int rng 33

let prefix_packing =
  QCheck.Test.make ~name:"packed prefix = int32 reference" ~count:500
    QCheck.int64
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let module P = Iproute.Prefix in
      let a = draw_addr rng and len = draw_len rng in
      let p = P.make a len in
      let canon = Int32.logand a (ref_mask len) in
      let b = draw_addr rng and m = draw_len rng in
      let q = P.make b m in
      let sign x = compare x 0 in
      let expand_ok =
        let upto = min 32 (len + Sim.Rng.int rng 7) in
        let expect =
          List.init
            (1 lsl (upto - len))
            (fun i ->
              ( Int32.logor canon
                  (if i = 0 then 0l
                   else Int32.shift_left (Int32.of_int i) (32 - upto)),
                upto ))
        in
        List.map (fun r -> (P.addr r, P.length r)) (P.expand p upto) = expect
      in
      if P.length p <> len then QCheck.Test.fail_reportf "length of /%d" len
      else if P.addr p <> canon then
        QCheck.Test.fail_reportf "addr %lx/%d -> %lx" a len (P.addr p)
      else if P.bits p <> Int32.to_int canon land 0xFFFFFFFF then
        QCheck.Test.fail_reportf "bits %lx/%d" a len
      else if not (P.equal (P.make (P.addr p) (P.length p)) p) then
        QCheck.Test.fail_reportf "make of addr/length %lx/%d" a len
      else if not (P.equal (P.of_bits (P.bits p) len) p) then
        QCheck.Test.fail_reportf "of_bits of bits %lx/%d" a len
      else if
        List.exists
          (fun x -> P.matches p x <> (Int32.logand x (ref_mask len) = canon))
          [ a; b; canon; Int32.lognot a; Int32.logxor a 1l ]
      then QCheck.Test.fail_reportf "matches %lx/%d" a len
      else if
        sign (P.compare p q)
        <> sign (ref_compare (canon, len) (Int32.logand b (ref_mask m), m))
        || sign (P.compare p (P.make b len))
           <> sign (ref_compare (canon, len) (Int32.logand b (ref_mask len), len))
      then QCheck.Test.fail_reportf "compare %lx/%d %lx/%d" a len b m
      else if
        not (P.equal (P.of_string (Format.asprintf "%a" P.pp p)) p)
      then QCheck.Test.fail_reportf "of_string of %a" P.pp p
      else if not expand_ok then QCheck.Test.fail_reportf "expand %a" P.pp p
      else true)

(* --- leaf folding ---------------------------------------------------------- *)

(* Lengths on either side of every stride boundary: a length d+6 is a
   leaf folded into the depth-d node, d+5 and d+7 are not, and 18 is
   the jump table's width. *)
let fold_lengths = [| 0; 5; 6; 7; 12; 17; 18; 19; 23; 24; 25; 30; 32 |]

(* Addresses that share long prefixes (same /24, /23, /17, /31) so
   folded leaves and child nodes sit under one another, plus bit 31
   set, all ones and zero. *)
let fold_addrs =
  Array.map addr
    [|
      "10.1.2.3"; "10.1.2.131"; "10.1.3.3"; "10.1.66.3"; "200.200.200.200";
      "255.255.255.255"; "0.0.0.0"; "10.1.2.2";
    |]

let fold_probes =
  List.concat_map
    (fun a ->
      List.map
        (fun flip -> Int32.logxor a flip)
        [ 0l; 1l; 2l; 0x40l; 0x80l; 0x100l; 0x4000l; 0x8000l; 0x2000000l;
          0x80000000l ])
    (Array.to_list fold_addrs)

(* Fixed opening ops (address index, length index): a /24 with a /25
   child under it, the /18 folded into the depth-12 node, then the /24
   removed while its child node stays, and a lone /24 (no child node)
   added and removed. *)
let fold_prelude =
  [
    (true, 0, 9); (true, 1, 10); (true, 0, 6); (false, 0, 9); (false, 0, 6);
    (true, 2, 9); (false, 2, 9); (false, 1, 10);
  ]

let leaf_folding_ops ops =
  let pop = Iproute.Poptrie.create () in
  let bt = ref Iproute.Btrie.empty in
  let model = ref [] in
  let sorted l =
    List.sort
      (fun (p, a) (q, b) ->
        let c = Iproute.Prefix.compare p q in
        if c <> 0 then c else compare a b)
      l
  in
  let check step =
    List.iter
      (fun a ->
        let expect = linear_lookup !model a in
        if Iproute.Poptrie.lookup pop a <> expect then
          QCheck.Test.fail_reportf "step %d: poptrie lookup %a" step
            Packet.Ipv4.pp_addr a;
        if Iproute.Btrie.lookup !bt a <> expect then
          QCheck.Test.fail_reportf "step %d: btrie lookup %a" step
            Packet.Ipv4.pp_addr a)
      fold_probes;
    let m = sorted !model in
    if sorted (Iproute.Poptrie.bindings pop) <> m then
      QCheck.Test.fail_reportf "step %d: poptrie bindings" step;
    if sorted (Iproute.Btrie.bindings !bt) <> m then
      QCheck.Test.fail_reportf "step %d: btrie bindings" step;
    if !model = [] && Iproute.Poptrie.node_count pop <> 1 then
      QCheck.Test.fail_reportf "step %d: empty table keeps %d nodes" step
        (Iproute.Poptrie.node_count pop)
  in
  List.iteri
    (fun i (is_add, ai, li) ->
      let p = Iproute.Prefix.make fold_addrs.(ai) fold_lengths.(li) in
      model := List.filter (fun (q, _) -> not (Iproute.Prefix.equal p q)) !model;
      if is_add then begin
        model := (p, i) :: !model;
        Iproute.Poptrie.add pop p i;
        bt := Iproute.Btrie.add !bt p i
      end
      else begin
        Iproute.Poptrie.remove pop p;
        bt := Iproute.Btrie.remove !bt p
      end;
      check i)
    (fold_prelude @ ops);
  true

let leaf_folding =
  QCheck.Test.make ~name:"leaf-folded poptrie = btrie = linear under churn"
    ~count:300
    QCheck.(
      list_of_size (Gen.int_bound 60)
        (triple bool (int_bound 7) (int_bound 12)))
    leaf_folding_ops

let folded_leaves_take_no_node () =
  (* A /24 sits in the depth-18 node's leaf map, a /18 in the depth-12
     node's: neither adds a node.  Only a longer prefix needs a child. *)
  let t = Iproute.Poptrie.create () in
  (* Each prefix carries its own length, distinct here. *)
  let add s =
    Iproute.Poptrie.add t (pfx_of s) (Iproute.Prefix.length (pfx_of s))
  in
  add "10.1.2.0/24";
  Alcotest.(check int) "root, depth 6, 12 and 18" 4
    (Iproute.Poptrie.node_count t);
  add "10.1.0.0/18";
  add "10.0.0.0/6";
  add "10.1.2.0/23";
  Alcotest.(check int) "leaves and internal prefixes add none" 4
    (Iproute.Poptrie.node_count t);
  add "10.1.2.128/25";
  Alcotest.(check int) "a /25 needs the depth-24 child" 5
    (Iproute.Poptrie.node_count t);
  Iproute.Poptrie.remove t (pfx_of "10.1.2.128/25");
  Alcotest.(check int) "pruned again" 4 (Iproute.Poptrie.node_count t);
  Alcotest.(check (option int)) "/24 still answers" (Some 24)
    (Option.map snd (Iproute.Poptrie.lookup t (addr "10.1.2.200")))

(* ---- The jump table exists exactly while a depth-18 node does ---- *)

(* The heap words a trie holds, and the jump table's share of them: a
   header and 2^18 slots, none filled yet. *)
let pop_words t = Obj.reachable_words (Obj.repr t)
let jump_words = 1 + (1 lsl 18)

(* An empty trie: its record (5 words), the root node (8), and the
   empty bytes (2) and empty array (1) every leaf node shares. *)
let empty_words = 16

let jump_table_lifecycle () =
  let t = Iproute.Poptrie.create () in
  let words () = pop_words t in
  let get a = Option.map snd (Iproute.Poptrie.lookup t (addr a)) in
  Alcotest.(check int) "empty: the record and the root" empty_words
    (words ());
  (* A /16 lives in the depth-12 node: no lookup reaches depth 18. *)
  Iproute.Poptrie.add t (pfx_of "10.1.0.0/16") 16;
  let shallow = words () in
  Alcotest.(check bool) "a /16 builds no jump table" true (shallow < jump_words);
  Alcotest.(check (option int)) "/16 answers" (Some 16) (get "10.1.2.3");
  (* A /24 is a leaf of a new depth-18 node: the node (8 words), its
     one-value block (a header and a word), the depth-12 node's first
     child array (a header and a word), and the table. *)
  Iproute.Poptrie.add t (pfx_of "10.1.2.0/24") 24;
  Alcotest.(check int) "a /24 brings the jump table"
    (shallow + 12 + jump_words) (words ());
  Alcotest.(check (option int)) "/24 answers" (Some 24) (get "10.1.2.3");
  Alcotest.(check (option int)) "warm slot answers" (Some 24) (get "10.1.2.3");
  Alcotest.(check (option int)) "/16 beside it" (Some 16) (get "10.1.3.3");
  Iproute.Poptrie.remove t (pfx_of "10.1.2.0/24");
  Alcotest.(check int) "the last depth-18 node takes the table with it"
    shallow (words ());
  Alcotest.(check (option int)) "/16 answers again" (Some 16) (get "10.1.2.3");
  Iproute.Poptrie.remove t (pfx_of "10.1.0.0/16");
  Alcotest.(check int) "emptied: one node" 1 (Iproute.Poptrie.node_count t);
  Alcotest.(check int) "emptied: the record and the root" empty_words
    (words ())

(* Add/remove over a handful of prefixes, half of them /19 or longer
   (a depth-18 node), so the table keeps crossing between having such a
   node and not.  After every op, each probe is looked up twice — the
   second through the slot the first filled — by both lookup forms,
   against Btrie, and the jump table is among its words exactly while
   a /19-or-longer prefix is stored. *)
let jump_bases =
  Array.map addr [| "10.1.2.3"; "10.1.2.200"; "10.1.130.7"; "10.9.0.9" |]

let jump_lens = [| 16; 16; 19; 22; 24; 25; 30 |]

let jump_probes =
  Array.map addr
    [|
      "10.1.2.3"; "10.1.2.200"; "10.1.2.0"; "10.1.3.1"; "10.1.130.7";
      "10.1.130.4"; "10.1.131.0"; "10.9.0.9"; "10.9.0.10"; "10.9.64.1";
      "10.0.0.1"; "11.1.2.3";
    |]

let jump_crossing_ops ops =
  let pop = Iproute.Poptrie.create () in
  let bt = ref Iproute.Btrie.empty in
  let ok = ref true in
  let check () =
    let deep =
      List.exists
        (fun (p, _) -> Iproute.Prefix.length p >= 19)
        (Iproute.Btrie.bindings !bt)
    in
    let w = pop_words pop in
    if deep <> (w >= jump_words) || w >= jump_words + (1 lsl 18) then
      ok := false;
    Array.iter
      (fun a ->
        let expect = Option.map snd (Iproute.Btrie.lookup !bt a) in
        for _ = 1 to 2 do
          if Option.map snd (Iproute.Poptrie.lookup pop a) <> expect then
            ok := false;
          let v =
            Iproute.Poptrie.lookup_or pop (Int32.to_int a) ~default:(-1)
          in
          if (if v < 0 then None else Some v) <> expect then ok := false
        done)
      jump_probes
  in
  List.iteri
    (fun i (is_add, b, l) ->
      let p =
        Iproute.Prefix.make jump_bases.(b mod Array.length jump_bases)
          jump_lens.(l mod Array.length jump_lens)
      in
      if is_add then begin
        Iproute.Poptrie.add pop p i;
        bt := Iproute.Btrie.add !bt p i
      end
      else begin
        Iproute.Poptrie.remove pop p;
        bt := Iproute.Btrie.remove !bt p
      end;
      check ())
    ops;
  List.iter (fun (p, _) -> Iproute.Poptrie.remove pop p)
    (Iproute.Btrie.bindings !bt);
  !ok
  && Iproute.Poptrie.node_count pop = 1
  && pop_words pop = empty_words

let jump_table_crossings =
  QCheck.Test.make ~name:"poptrie = btrie as the jump table comes and goes"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple bool (int_bound 3) (int_bound 6)))
    jump_crossing_ops

(* ---- The next-hop table behind the trie's 16-bit ids ---- *)

let nexthop =
  Alcotest.testable
    (fun ppf nh ->
      Format.fprintf ppf "{out_port=%d; gateway_mac=%#x}"
        nh.Iproute.Table.out_port nh.Iproute.Table.gateway_mac)
    ( = )

(* Every route gets a freshly built record, so equal next hops arrive
   as distinct blocks and share an id; each lookup form must still
   answer a record equal to the one installed, and a miss the physical
   [no_route]. *)
let nexthop_ids_round_trip () =
  let t = Iproute.Table.create () in
  let routes =
    List.init 48 (fun i ->
        ( Iproute.Prefix.of_bits ((10 lsl 24) lor (i lsl 16)) 16,
          {
            Iproute.Table.out_port = i mod 5;
            gateway_mac = 0x020000000000 lor (i mod 3);
          } ))
  in
  List.iter (fun (p, nh) -> Iproute.Table.add t p nh) routes;
  List.iter
    (fun (p, want) ->
      let a = Iproute.Prefix.addr p in
      let what = Format.asprintf "%a" Iproute.Prefix.pp p in
      Alcotest.(check (option nexthop)) (what ^ " lookup") (Some want)
        (Iproute.Table.lookup t a);
      let hit = ref true in
      Alcotest.check nexthop (what ^ " cached, miss") want
        (Iproute.Table.lookup_cached t (key a) ~hit);
      Alcotest.(check bool) (what ^ " first probe misses") false !hit;
      Alcotest.check nexthop (what ^ " cached, hit") want
        (Iproute.Table.lookup_cached t (key a) ~hit);
      Alcotest.(check bool) (what ^ " second probe hits") true !hit)
    routes;
  let hit = ref true in
  Alcotest.(check bool) "a miss is no_route, physically" true
    (Iproute.Table.lookup_cached t (key (addr "11.0.0.1")) ~hit
    == Iproute.Table.no_route);
  Alcotest.(check (option nexthop)) "a miss is None" None
    (Iproute.Table.lookup t (addr "11.0.0.1"))

let nexthop_id_limits () =
  let t = Iproute.Table.create () in
  let p = pfx_of "10.0.0.0/8" in
  let nh i = { Iproute.Table.out_port = i; gateway_mac = 0 } in
  for i = 0 to 65535 do
    Iproute.Table.add t p (nh i)
  done;
  (* Every id is taken; a next hop that has one is still welcome. *)
  Iproute.Table.add t p (nh 7);
  Alcotest.check_raises "the 65,537th distinct next hop"
    (Invalid_argument "Table.add: more than 65536 distinct next hops")
    (fun () -> Iproute.Table.add t p (nh 65536));
  Alcotest.(check (option nexthop)) "the table still answers" (Some (nh 7))
    (Iproute.Table.lookup t (addr "10.1.2.3"));
  let pop = Iproute.Poptrie.create () in
  Iproute.Poptrie.add pop p 65535;
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "Poptrie.add of %d" v)
        (Invalid_argument "Poptrie.add: value outside 0..65535")
        (fun () -> Iproute.Poptrie.add pop p v))
    [ 65536; -1 ];
  Alcotest.(check (option int)) "the trie keeps its value" (Some 65535)
    (Iproute.Poptrie.find pop p)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      engines_agree; poptrie_diff_ops; covered_equiv; route_cache_model;
      prefix_packing; leaf_folding; jump_table_crossings;
    ]

let tests =
  [
    Alcotest.test_case "prefix canonicalization" `Quick prefix_canonical;
    Alcotest.test_case "prefix matches" `Quick prefix_matches;
    Alcotest.test_case "prefix expand" `Quick prefix_expand;
    Alcotest.test_case "btrie basics" `Quick btrie_basic;
    Alcotest.test_case "poptrie remove" `Quick poptrie_remove;
    Alcotest.test_case "route cache" `Quick route_cache_behavior;
    Alcotest.test_case "table cached lookup" `Quick table_cached_lookup;
    Alcotest.test_case "table engines consistent" `Quick
      table_engines_consistent;
    Alcotest.test_case "selective cache invalidation" `Quick
      selective_invalidation_scope;
    Alcotest.test_case "poptrie basics" `Quick poptrie_basic;
    Alcotest.test_case "folded leaves take no node" `Quick
      folded_leaves_take_no_node;
    Alcotest.test_case "jump table only under depth-18 nodes" `Quick
      jump_table_lifecycle;
    Alcotest.test_case "next hops round-trip their ids" `Quick
      nexthop_ids_round_trip;
    Alcotest.test_case "next-hop id limits" `Quick nexthop_id_limits;
    Alcotest.test_case "covered invalidation fast path" `Quick
      covered_invalidation_unit;
    Alcotest.test_case "table /32 change costs one probe" `Quick
      table_covered_invalidation;
    Alcotest.test_case "table size = bindings" `Quick
      table_size_counts_routes;
    Alcotest.test_case "cold table install scans no cache line" `Quick
      cold_install_scan_cost;
    Alcotest.test_case "bgp table shape + determinism" `Quick bgp_table_shape;
    Alcotest.test_case "generator output pinned" `Quick generator_output_pinned;
    Alcotest.test_case "poptrie vs btrie at one million routes" `Slow
      poptrie_million;
    Alcotest.test_case "generated table shape" `Quick generated_table_shape;
    Alcotest.test_case "engines agree on realistic tables" `Slow
      engines_agree_realistic;
    Alcotest.test_case "engines agree on degenerate tables" `Quick
      engines_agree_default_only;
  ]
  @ qsuite
