(* Million-route compressed FIB: the poptrie engine against the
   reference binary trie under build, lookup, and churn.

   Three kinds of evidence, matching what the gate can hold steady:

   - Deterministic rows (route counts, structure telemetry, differential
     divergences, RIP convergence measured in *simulated* time) are
     identical on every host, so CI gates them both ways with
     bench/gate.py against the committed BENCH_fib.json.
   - Wall-clock ns/lookup and ns/update rows depend on the host and are
     informational on their own.
   - The acceptance criterion — the compressed engine is at least 5x
     faster than the binary trie at a million routes — is distilled into
     a boolean row ("poptrie >= 5x btrie at 1M", 1.0 or 0.0) that the
     gate compares exactly, so the advantage collapsing fails CI on any
     host without gating raw nanoseconds.  [failures] also makes the
     harness itself exit nonzero on a differential divergence, a stale
     cached next-hop, or a speedup below the floor. *)

let failures = ref 0
let seed = 20010L
let n_ports = 8
let sizes = [ 1_000; 10_000; 100_000; 1_000_000 ]

let top = 1_000_000

(* Half uniformly random (mostly default-route traffic), half drawn
   under a live prefix — the same mix the differential tests probe. *)
let gen_addrs ~rng base k =
  Array.init k (fun i ->
      if i land 1 = 0 then Sim.Rng.int32 rng
      else Iproute.Gen.hit_addr ~rng base)

(* A primed timer: each call times one pass of [iters] calls of [f] over
   [addrs] and returns ns per call. *)
let timer ~iters f addrs =
  let k = Array.length addrs in
  (* Prime the whole pool: steady-state lookup cost, not first-touch
     (page faults, lazy jump-slot fills) which no per-packet path pays. *)
  for i = 0 to k - 1 do
    ignore (f addrs.(i))
  done;
  fun () ->
    let t0 = Sys.time () in
    let hits = ref 0 in
    let i = ref 0 in
    for _ = 1 to iters do
      (match f addrs.(!i) with Some _ -> incr hits | None -> ());
      incr i;
      if !i = k then i := 0
    done;
    let dt = Sys.time () -. t0 in
    ignore !hits;
    dt *. 1e9 /. float_of_int iters

(* Best of [reps] for each of two timers, their reps interleaved:
   best-of sheds container CPU-frequency throttling (same reasoning as
   bench/perf.ml), and interleaving spreads a throttled stretch over
   both engines instead of the one timed during it, so the ratio of the
   two bests holds still. *)
let best_interleaved ~reps a b =
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to reps do
    best_a := Float.min !best_a (a ());
    best_b := Float.min !best_b (b ())
  done;
  (!best_a, !best_b)

let build_pop base =
  let pop = Iproute.Poptrie.create () in
  Array.iter (fun (p, v) -> Iproute.Poptrie.add pop p v) base;
  pop

let build_btrie base =
  Array.fold_left (fun t (p, v) -> Iproute.Btrie.add t p v) Iproute.Btrie.empty
    base

(* Count lookup disagreements (matched prefix or value) between the two
   engines over [addrs].  Zero is the differential-identity row. *)
let divergences pop bt addrs =
  let bad = ref 0 in
  Array.iter
    (fun a ->
      if Iproute.Poptrie.lookup pop a <> Iproute.Btrie.lookup bt a then
        incr bad)
    addrs;
  !bad

let apply_op_pop pop = function
  | Iproute.Gen.Announce (p, v) -> Iproute.Poptrie.add pop p v
  | Iproute.Gen.Withdraw p -> Iproute.Poptrie.remove pop p

let apply_op_btrie bt = function
  | Iproute.Gen.Announce (p, v) -> bt := Iproute.Btrie.add !bt p v
  | Iproute.Gen.Withdraw p -> bt := Iproute.Btrie.remove !bt p

(* ns per update applying [ops] via [f], wall-clocked once (updates are
   measured in bulk, so throttling noise amortizes). *)
let time_updates f ops =
  let t0 = Sys.time () in
  Array.iter f ops;
  let dt = Sys.time () -. t0 in
  dt *. 1e9 /. float_of_int (Array.length ops)

(* The install path every workload takes: the whole table through
   [Router.add_route] into a fresh router, whose route cache is cold.
   Each write invalidates the cache; while it is empty that costs no
   line, so the scan-work row is 0 on any host and gated.  Host ns per
   route is best of [install_reps]. *)
let install_reps = 3

let router_install_segment () =
  let rng = Sim.Rng.create seed in
  let base = Iproute.Gen.bgp_table ~rng ~n:top ~n_ports in
  let one () =
    let r = Router.create () in
    let t0 = Sys.time () in
    Array.iter (fun (p, port) -> Router.add_route r p ~port) base;
    let dt = Sys.time () -. t0 in
    (float_of_int top /. dt, Iproute.Table.cache_scan_cost r.Router.routes)
  in
  let runs = List.init install_reps (fun _ -> one ()) in
  let rates = List.map fst runs in
  let scan = List.fold_left (fun acc (_, s) -> max acc s) 0 runs in
  let ns = 1e9 /. List.fold_left Float.max 0. rates in
  let spread = Perf.spread_of rates in
  Report.info
    "router install %d routes: %.0f ns/route (best of %d, spread %.1f%%), \
     %d cache slots scanned"
    top ns install_reps (100. *. spread) scan;
  Report.row ~unit_:"ns" ~name:"router install ns/route [n=1000000]"
    ~paper:1_000. ~measured:ns;
  Report.row ~unit_:"slots" ~name:"router install scan work [n=1000000]"
    ~paper:0. ~measured:(float_of_int scan);
  Report.row ~unit_:"frac" ~name:"run spread (router install)" ~paper:0.10
    ~measured:spread;
  if scan > 0 then begin
    incr failures;
    Report.info "  FIB FAILURE: cold install scanned %d route-cache slots" scan
  end

(* The RIP segment: a storm of announce/withdraw updates driven through
   the daemon's own [apply] path against a live router with the poptrie
   engine and selective invalidation, while a data-plane fiber keeps
   probing the route cache and cross-checks every cache hit against a
   fresh full lookup.  Everything here advances in simulated time, so
   the convergence rows are bit-deterministic. *)
let rip_segment () =
  let config =
    { Router.default_config with Router.selective_invalidation = true }
  in
  let r = Router.create ~config () in
  let rip = Control.Rip.create r in
  let rng = Sim.Rng.create seed in
  let base = Iproute.Gen.bgp_table ~rng ~n:20_000 ~n_ports in
  let ops = Iproute.Gen.churn ~rng ~base ~n_ports ~steps:10_000 in
  let end_ps = 2_000_000_000L (* 2000 us *) in
  Sim.Engine.spawn r.Router.engine "fib-rip-storm" (fun () ->
      (* Full-table install burst at t=0 (the daemon rejects refreshes,
         so alternating metrics make every entry a real write)... *)
      Array.iter
        (fun (p, v) ->
          Control.Rip.apply rip ~via_port:0
            { Control.Rip.prefix = p; metric = 1 + (v land 1) })
        base;
      (* ...then paced churn, 10 k updates over the first millisecond. *)
      Array.iter
        (fun op ->
          (match op with
          | Iproute.Gen.Announce (p, v) ->
              Control.Rip.apply rip ~via_port:0
                { Control.Rip.prefix = p; metric = 1 + (v land 1) }
          | Iproute.Gen.Withdraw p ->
              Control.Rip.apply rip ~via_port:0
                {
                  Control.Rip.prefix = p;
                  metric = Control.Rip.infinity_metric;
                });
          Sim.Engine.wait_in r.Router.engine 100_000)
        ops)
  ;
  let stale = ref 0 and cache_hits = ref 0 and probes = ref 0 in
  Sim.Engine.spawn r.Router.engine "fib-dataplane" (fun () ->
      (* A small recurring flow population (rather than fresh random
         addresses) so probes re-hit warm cache lines — the staleness
         check only means something on a cache hit. *)
      let rng = Sim.Rng.create 77L in
      let pool =
        Array.init 256 (fun i ->
            if i land 3 = 0 then Sim.Rng.int32 rng
            else Iproute.Gen.hit_addr ~rng base)
      in
      let hit = ref false in
      let i = ref 0 in
      while Sim.Engine.time r.Router.engine < end_ps do
        for _ = 1 to 4 do
          let a = pool.(!i land 255) in
          incr i;
          incr probes;
          let nh =
            Iproute.Table.lookup_cached r.Router.routes
              (Int32.to_int a land 0xFFFFFFFF)
              ~hit
          in
          if !hit then begin
            incr cache_hits;
            if Iproute.Table.lookup r.Router.routes a <> Some nh then
              incr stale
          end
        done;
        Sim.Engine.wait_in r.Router.engine 1_000_000
      done);
  Router.start r;
  Router.run_for r ~us:2_000.;
  let stats = Control.Rip.stats rip in
  let installed =
    Sim.Stats.Counter.value stats.Control.Rip.routes_installed
  in
  let withdrawn =
    Sim.Stats.Counter.value stats.Control.Rip.routes_withdrawn
  in
  let quiet_us = Int64.to_float (Control.Rip.quiet_ps rip) /. 1e6 in
  Report.info
    "rip storm: %d installed, %d withdrawn, %d table writes; %d cache \
     probes (%d hits), %d stale; quiet for %.1f us of simulated time"
    installed withdrawn
    (Control.Rip.table_changes rip)
    !probes !cache_hits !stale quiet_us;
  Report.row ~unit_:"writes" ~name:"rip table writes [storm]" ~paper:30_000.
    ~measured:(float_of_int (Control.Rip.table_changes rip));
  Report.row ~unit_:"routes" ~name:"rip routes at end [storm]" ~paper:20_000.
    ~measured:(float_of_int (Iproute.Table.size r.Router.routes));
  Report.row ~unit_:"lines" ~name:"stale cached nexthops [storm]" ~paper:0.
    ~measured:(float_of_int !stale);
  Report.row ~unit_:"us" ~name:"convergence quiet_us [storm]" ~paper:1_000.
    ~measured:quiet_us;
  Report.row ~unit_:"hits" ~name:"cache hits audited [storm]" ~paper:4_000.
    ~measured:(float_of_int !cache_hits);
  if !stale > 0 then begin
    incr failures;
    Report.info "  FIB FAILURE: route cache served %d stale next-hop(s)"
      !stale
  end;
  if !cache_hits = 0 then begin
    (* A staleness audit that never saw a cache hit proves nothing. *)
    incr failures;
    Report.info "  FIB FAILURE: staleness audit exercised no cache hits"
  end;
  Report.attach "fib_rip" (Telemetry.Registry.snapshot r.Router.telemetry)

let run () =
  Report.section
    "Compressed FIB: poptrie vs binary trie, 1 k to 1 M routes (extension)";
  List.iter
    (fun n ->
      let rng = Sim.Rng.create seed in
      let base = Iproute.Gen.bgp_table ~rng ~n ~n_ports in
      let t0 = Sys.time () in
      let pop = build_pop base in
      let t_pop = Sys.time () -. t0 in
      let t0 = Sys.time () in
      let bt = build_btrie base in
      let t_bt = Sys.time () -. t0 in
      let addrs = gen_addrs ~rng base 20_000 in
      let bad = divergences pop bt addrs in
      let iters = if n >= top then 200_000 else 400_000 in
      let pop_ns, bt_ns =
        best_interleaved ~reps:5
          (timer ~iters (fun a -> Iproute.Poptrie.lookup pop a) addrs)
          (timer ~iters (fun a -> Iproute.Btrie.lookup bt a) addrs)
      in
      Report.info
        "n=%7d: built poptrie %.2fs / btrie %.2fs; %d nodes, %.1f B/route; \
         lookup %5.0f ns poptrie, %6.0f ns btrie (%.1fx)"
        n t_pop t_bt
        (Iproute.Poptrie.node_count pop)
        (float_of_int (8 * Iproute.Poptrie.memory_words pop) /. float_of_int n)
        pop_ns bt_ns (bt_ns /. pop_ns);
      Report.row ~unit_:"routes"
        ~name:(Printf.sprintf "routes built [n=%d]" n)
        ~paper:(float_of_int n)
        ~measured:(float_of_int (Iproute.Poptrie.size pop));
      Report.row ~unit_:"lookups"
        ~name:(Printf.sprintf "lookup divergences [n=%d]" n)
        ~paper:0. ~measured:(float_of_int bad);
      Report.row ~unit_:"ns"
        ~name:(Printf.sprintf "poptrie lookup ns [n=%d]" n)
        ~paper:100. ~measured:pop_ns;
      Report.row ~unit_:"ns"
        ~name:(Printf.sprintf "btrie lookup ns [n=%d]" n)
        ~paper:100. ~measured:bt_ns;
      if bad > 0 then begin
        failures := !failures + bad;
        Report.info "  FIB FAILURE: %d lookup divergence(s) at n=%d" bad n
      end;
      if n = top then begin
        (* Structure telemetry: deterministic from the seed, gated. *)
        Report.row ~unit_:"nodes/route"
          ~name:"poptrie nodes per route [n=1000000]" ~paper:1.
          ~measured:
            (float_of_int (Iproute.Poptrie.node_count pop) /. float_of_int n);
        Report.row ~unit_:"B/route" ~name:"poptrie bytes per route [n=1000000]"
          ~paper:64.
          ~measured:
            (float_of_int (8 * Iproute.Poptrie.memory_words pop)
            /. float_of_int n);
        let speedup = bt_ns /. pop_ns in
        Report.row ~unit_:"x"
          ~name:"poptrie lookup speedup vs btrie [n=1000000]" ~paper:5.
          ~measured:speedup;
        Report.row ~unit_:"bool" ~name:"poptrie >= 5x btrie at 1M" ~paper:1.
          ~measured:(if speedup >= 5. then 1. else 0.);
        if speedup < 5. then begin
          incr failures;
          Report.info
            "  FIB FAILURE: poptrie only %.1fx btrie at 1M routes (floor 5x)"
            speedup
        end;
        (* Update cost: the same churn stream applied incrementally to
           both engines, then re-proven identical. *)
        let ops = Iproute.Gen.churn ~rng ~base ~n_ports ~steps:50_000 in
        let pop_up_ns = time_updates (apply_op_pop pop) ops in
        let btr = ref bt in
        let bt_up_ns = time_updates (apply_op_btrie btr) ops in
        let addrs2 = gen_addrs ~rng base 10_000 in
        let bad2 = divergences pop !btr addrs2 in
        Report.info
          "churn 50000 ops at 1M: %4.0f ns/update poptrie, %4.0f ns/update \
           btrie; %d divergences after"
          pop_up_ns bt_up_ns bad2;
        Report.row ~unit_:"ns"
          ~name:"poptrie update ns [n=1000000]" ~paper:1_000.
          ~measured:pop_up_ns;
        Report.row ~unit_:"ns" ~name:"btrie update ns [n=1000000]"
          ~paper:1_000. ~measured:bt_up_ns;
        Report.row ~unit_:"lookups"
          ~name:"churn divergences [n=1000000]" ~paper:0.
          ~measured:(float_of_int bad2);
        if bad2 > 0 then begin
          failures := !failures + bad2;
          Report.info
            "  FIB FAILURE: %d divergence(s) after churn at n=1000000" bad2
        end
      end)
    sizes;
  Report.section "Route install through the router (cold route cache)";
  router_install_segment ();
  Report.section
    "RIP churn against the live poptrie table (simulated time)";
  rip_segment ()
