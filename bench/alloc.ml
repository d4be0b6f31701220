(* Steady-state allocation budget: minor-heap words per forwarded packet.

   The zero-allocation work (pooled descriptors, park cells, option-free
   queue paths, limb-based RNG, int-coded handles) only stays done if CI
   notices when a change re-introduces per-packet heap traffic.  This
   experiment measures the line-rate scenario of bench/perf.ml — the
   full three-level router at 8x100 Mbps, 64-byte frames, a frame pool
   closing the loop — and reports the steady-state allocation quotient
   plus a decomposition into the substrate costs that dominate it:

   - rng draw: words per [Sim.Rng.int] call (limb-based: 0)
   - generator frame: words per pooled [Mix.udp_uniform] frame
   - engine suspension: words per scheduled event (effect capture +
     constructor + queue traffic) — the irreducible cost of a
     fiber actually suspending, paid fiber resumes/packet times per
     packet (the stepped contexts' events box nothing)
   - words/packet, events/packet, promoted words over the measured
     window for the whole router
   - fiber resumes/packet: the events that resumed a suspended fiber
     (a continuation capture and resume each) rather than calling a
     stepped context or a callback.  The MicroEngine contexts and the
     sources are stepped, so only the StrongARM, the Pentium and other
     fibers add to it
   - frames minted: how many frames the router's frame pool ever had to
     create.  A DRAM buffer holds its frame only while the packet is in
     flight, so this is the peak number in flight, not the 8192-slot
     ring a pool pinning every frame until its slot came round needed
   - construction footprint: heap words reachable from a freshly built
     default router, and from a 4-member cluster with frame pools — what
     every router pays before its first packet (the Poptrie jump table
     and the DRAM buffer pool dominated it once)
   - retention: heap words a queued 4-member cluster still reaches after
     a fixed run and a drain, over its size after the first epoch.  Pools, caches and
     tables that fill are part of it; a container that keeps dispatched
     events, frames or messages reachable shows here as growth (the
     event queue's vacated slots did, until they were cleared)
   - crossings: minor words and scheduled events per fabric crossing
     over the same queued cluster under load
   - route loading: words [Gen.bgp_table] allocates per route of a
     100k-route set, and words a router and its RIP daemon reach per
     route once the daemon has installed that set

   Unlike wall-clock pps, allocation counts are exact and repeatable —
   the spread rows exist for gate.py --refresh symmetry and sit near
   zero.  CI gates "minor words/packet" (and friends) against the
   committed BENCH_alloc.json with a max-ratio ceiling: getting *worse*
   fails; getting better passes and deserves a re-baseline. *)

let failures = ref 0

(* Hard ceiling asserted locally (not just vs the committed baseline):
   the steady-state quotient must stay under this many minor words per
   forwarded packet.  Chosen above the measured value (~10, ~44 while
   the MicroEngine contexts and sources were fibers) with room for
   host-dependent warm-up; tighten as further waves land. *)
let words_per_packet_ceiling = 20.

let warmup_us = 2_000.
let measured_us = 40_000.

(* Words per call of [f], measured over [n] calls. *)
let words_per ~n f =
  let gc = Sim.Gc_stats.create () in
  for i = 1 to n do
    f i
  done;
  Sim.Gc_stats.minor_words gc /. float_of_int n

let rng_row () =
  let rng = Sim.Rng.create 7L in
  let sink = ref 0 in
  let w =
    words_per ~n:100_000 (fun i -> sink := !sink + Sim.Rng.int rng (i + 1))
  in
  ignore !sink;
  w

let gen_row () =
  let pool = Packet.Frame_pool.create ~max_frames:64 ~frame_bytes:80 () in
  let rng = Sim.Rng.create 11L in
  let gen = Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:8 ~frame_len:64 () in
  (* Prime the pool so the measured loop recycles instead of minting. *)
  for i = 0 to 9 do
    Packet.Frame_pool.give pool (gen i)
  done;
  words_per ~n:50_000 (fun i ->
      let f = gen i in
      Packet.Frame_pool.give pool f)

(* Two fibers alternating waits so neither window is ever event-free:
   every wait suspends for real (continuation capture + Resume box;
   the wheel's push and pop allocate nothing).  Words per *scheduled
   event*. *)
let suspension_row () =
  let e = Sim.Engine.create () in
  let n = 20_000 in
  Sim.Engine.spawn e "a" (fun () ->
      for _ = 1 to n do
        Sim.Engine.wait_in e 1_000
      done);
  Sim.Engine.spawn e "b" (fun () ->
      for _ = 1 to n do
        Sim.Engine.wait_in e 1_000
      done);
  let gc = Sim.Gc_stats.create () in
  Sim.Engine.run_until_idle e;
  Sim.Gc_stats.minor_words gc /. float_of_int (Sim.Engine.events_scheduled e)

(* Ceiling on the fiber resumes/packet row: well above the measured
   ~0.57, far below the ~9 a MicroEngine loop back on fibers costs. *)
let fiber_resumes_ceiling = 1.0

(* The bench/perf.ml line-rate router, instrumented for allocation:
   returns (minor words/pkt, promoted words/pkt, events/pkt, fiber
   resumes/pkt, callbacks/pkt, minor collections) over the measured
   phase, and the frames its pool minted over the whole run. *)
let router_alloc () =
  let config =
    {
      Router.default_config with
      Router.circular_buffers = true;
      Router.queue_capacity = 512;
    }
  in
  let r = Router.create ~config () in
  let pool = Packet.Frame_pool.create ~max_frames:16_384 ~frame_bytes:80 () in
  Router.set_frame_pool r pool;
  for p = 0 to config.Router.n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  Router.start r;
  let rng = Sim.Rng.create 42L in
  for p = 0 to config.Router.n_ports - 1 do
    let rng = Sim.Rng.split rng in
    let gen =
      Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:config.Router.n_ports
        ~frame_len:64 ()
    in
    ignore
      (Workload.Source.spawn_line_rate r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~mbps:100. ~frame_len:64 ~gen
         ~offer:(fun f ->
           let ok = Router.inject r ~port:p f in
           if not ok then Packet.Frame_pool.give pool f;
           ok)
         ())
  done;
  Router.run_for r ~us:warmup_us;
  let out0 =
    Sim.Stats.Counter.value r.Router.ostats.Router.Output_loop.pkts_out
  in
  let e = r.Router.engine in
  let ev0 = Sim.Engine.events_scheduled e in
  let res0 = Sim.Engine.fiber_resumes e in
  let cb0 = Sim.Engine.callbacks_dispatched e in
  let gc = Sim.Gc_stats.create () in
  Router.run_for r ~us:measured_us;
  let out =
    Sim.Stats.Counter.value r.Router.ostats.Router.Output_loop.pkts_out - out0
  in
  let ev = Sim.Engine.events_scheduled e - ev0 in
  let res = Sim.Engine.fiber_resumes e - res0 in
  let cb = Sim.Engine.callbacks_dispatched e - cb0 in
  let pkts = float_of_int (max 1 out) in
  ( Sim.Gc_stats.minor_words gc /. pkts,
    Sim.Gc_stats.promoted_words gc /. pkts,
    float_of_int ev /. pkts,
    float_of_int res /. pkts,
    float_of_int cb /. pkts,
    Sim.Gc_stats.minor_collections gc,
    Packet.Frame_pool.minted pool )

(* Words reachable from a value just built: exact and host-independent. *)
let words_at_create v = float_of_int (Obj.reachable_words (Obj.repr v))

let router_create_words () = words_at_create (Router.create ())

(* The queued cluster scenario: 4 members with 8 ports each and frame
   pools, taildrop:256 fabric queues, 32 sources at 95% of the 64-byte
   line rate.  Returns the cluster and a switch that makes every later
   offer refused; the sources keep running (and keep handing their
   frames back to the pools). *)
let queued_cluster () =
  let fabric_queue =
    match Cluster.Fabric_queue.parse "taildrop:256" with
    | Ok q -> q
    | Error m -> failwith m
  in
  let c =
    Cluster.create ~members:4 ~ports_per_member:8 ~frame_pool:true
      ~fabric_queue ()
  in
  let stopped = ref false in
  let rng = Sim.Rng.create 42L in
  for g = 0 to 31 do
    let m, _ = Cluster.member_of_global_port c g in
    let pool = Option.get (Cluster.frame_pool c m) in
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "g%d" g)
         ~mbps:100. ~frame_len:64
         ~gen:
           (Workload.Mix.udp_uniform ~pool ~rng ~n_subnets:32 ~frame_len:64 ())
         ~offer:(fun f ->
           let ok = (not !stopped) && Cluster.inject c ~global_port:g f in
           if not ok then Packet.Frame_pool.give pool f;
           ok)
         ())
  done;
  (c, stopped)

(* The retention scenario: the queued cluster loaded for 20 ms, then
   20 ms with every offer refused, so the drained cluster is the same
   shape as the loaded one.  The baseline is taken after the first
   epoch (the fabric's 2 us lookahead), once every context has started:
   [Obj.reachable_words] cannot see a fiber's stack, so a context whose
   state lives there would drop out of the after-drain count, and one
   whose state lives in heap records would not.  Measured from there,
   both sides count the same contexts. *)
let retained_run_us = 20_000.
let retained_drain_us = 20_000.
let retained_baseline_us = 2.

let cluster_retained_words () =
  let c, stopped = queued_cluster () in
  Cluster.run_for c ~us:retained_baseline_us;
  let baseline = Obj.reachable_words (Obj.repr c) in
  Cluster.run_for c ~us:(retained_run_us -. retained_baseline_us);
  stopped := true;
  Cluster.run_for c ~us:retained_drain_us;
  Gc.full_major ();
  float_of_int (Obj.reachable_words (Obj.repr c) - baseline)

(* The crossing rows: minor words and scheduled events per fabric
   crossing over the loaded queued cluster, after a warm-up.  Both are
   whole-cluster quotients (external traffic included), exact and
   deterministic, so a rise in what a crossing costs — a lock, a sort,
   a boxed result, an extra event per frame — shows as a rise here. *)
let crossing_warmup_us = 2_000.
let crossing_window_us = 20_000.

let cluster_crossing_costs () =
  let c, _ = queued_cluster () in
  Cluster.run_for c ~us:crossing_warmup_us;
  let events () =
    Array.fold_left
      (fun acc e -> acc + Sim.Engine.events_scheduled e)
      0 c.Cluster.engines
  in
  let x0 = Cluster.fabric_frames c and ev0 = events () in
  let gc = Sim.Gc_stats.create () in
  Cluster.run_for c ~us:crossing_window_us;
  let words = Sim.Gc_stats.minor_words gc in
  let crossings = float_of_int (max 1 (Cluster.fabric_frames c - x0)) in
  (words /. crossings, float_of_int (events () - ev0) /. crossings)

let cluster_create_words () =
  words_at_create (Cluster.create ~members:4 ~frame_pool:true ())

(* The route-loading rows: what a 100k-route set costs to draw, and what
   a router holds once the RIP daemon has installed it.  Both are exact,
   so a duplicate filter or RIB entry that goes back to boxed values
   shows here as a rise. *)
let routes_n = 100_000

let load_routes () =
  Iproute.Gen.bgp_table ~rng:(Sim.Rng.create 11L) ~n:routes_n ~n_ports:8

(* Words [Gen.bgp_table] allocates per route, wherever they land: minor
   plus major minus promoted counts each word once. *)
let generation_words_per_route () =
  let gc = Sim.Gc_stats.create () in
  ignore (load_routes () : (Iproute.Prefix.t * int) array);
  (Sim.Gc_stats.minor_words gc +. Sim.Gc_stats.major_words gc
  -. Sim.Gc_stats.promoted_words gc)
  /. float_of_int routes_n

(* Words reachable from a default router and its RIP daemon after the
   daemon has announced every route (metric 0, via its port): the FIB
   and the RIB together, per route. *)
let rip_loaded_words_per_route () =
  let routes = load_routes () in
  let r = Router.create () in
  let rip = Control.Rip.create r in
  Array.iter
    (fun (prefix, port) ->
      Control.Rip.apply rip ~via_port:port { Control.Rip.prefix; metric = 0 })
    routes;
  float_of_int (Obj.reachable_words (Obj.repr (r, rip)))
  /. float_of_int routes_n

(* Budgets for the construction rows (the paper column), in words,
   with headroom over the measured ~40.5k and ~186k.  A default router
   has an empty FIB, so it holds no Poptrie jump table; an accidental
   eager one would add 2^18 words and show here. *)
let router_words_budget = 64_000.
let cluster_words_budget = 320_000.

(* Budget for the retention row, with headroom over the measured ~631k
   (~743k while the event queue kept its vacated slots). *)
let retained_words_budget = 1_000_000.

(* Budgets for the crossing rows, with headroom over the measured ~320
   words and ~25.2 events per crossing. *)
let crossing_words_budget = 400.
let crossing_events_budget = 30.

(* Budget for the frames-minted row, with headroom over the measured
   ~258. *)
let minted_budget = 1_024.

(* Budgets for the route-loading rows, in words per route, with headroom
   over the measured ~7.8 and ~12.1.  A [Hashtbl] duplicate filter and a
   length draw that boxed a float per step cost ~33.6; a record per RIB
   entry ~15.6; a pointer per trie value instead of a 16-bit next-hop
   index ~12.6. *)
let generation_words_budget = 10.
let rip_loaded_words_budget = 14.

let run () =
  Report.section "Allocation budget (steady-state minor words per packet)";
  (* Same minor heap the perf run uses: 8M words, so the measured phase
     sees a realistic (low) collection count. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let rng_w = rng_row () in
  let gen_w = gen_row () in
  let susp_w = suspension_row () in
  (* Two repetitions: allocation counts are exact, so the spread rows
     (required by gate.py --refresh) only confirm run-to-run identity. *)
  let w1, p1, e1, _res1, _cb1, _gcs1, _minted1 = router_alloc () in
  let w2, p2, e2, res, cb, gcs2, minted = router_alloc () in
  let router_words = router_create_words () in
  let cluster_words = cluster_create_words () in
  let retained_words = cluster_retained_words () in
  let generation_words = generation_words_per_route () in
  let rip_loaded_words = rip_loaded_words_per_route () in
  let crossing_words, crossing_events = cluster_crossing_costs () in
  let w = Float.min w1 w2 and p = Float.min p1 p2 in
  let e = Float.min e1 e2 in
  let spread a b =
    let hi = Float.max a b in
    if hi <= 0. then 0. else (hi -. Float.min a b) /. hi
  in
  Report.info "substrate: %.2f w/rng-draw, %.1f w/generated-frame, %.1f \
               w/suspension"
    rng_w gen_w susp_w;
  Report.info "router: %.1f minor w/pkt, %.1f promoted w/pkt, %.2f \
               events/pkt (%.2f fiber resumes, %.2f callbacks), %d minor \
               collections (measured phase)"
    w p e res cb gcs2;
  (* paper = the budget/reference, measured = this run; CI additionally
     ratio-gates these rows against the committed baseline. *)
  Report.row ~unit_:"w/call" ~name:"rng draw words" ~paper:0.0 ~measured:rng_w;
  Report.row ~unit_:"w/frame" ~name:"generator frame words" ~paper:8.0
    ~measured:gen_w;
  Report.row ~unit_:"w/event" ~name:"suspension words" ~paper:20.0
    ~measured:susp_w;
  Report.row ~unit_:"w/pkt" ~name:"minor words/packet"
    ~paper:words_per_packet_ceiling ~measured:w;
  Report.row ~unit_:"w/pkt" ~name:"promoted words/packet" ~paper:10.0
    ~measured:p;
  Report.row ~unit_:"ev/pkt" ~name:"events/packet" ~paper:10.0 ~measured:e;
  Report.row ~unit_:"ev/pkt" ~name:"fiber resumes/packet"
    ~paper:fiber_resumes_ceiling ~measured:res;
  Report.row ~unit_:"frames" ~name:"frames minted (line64 scenario)"
    ~paper:minted_budget ~measured:(float_of_int minted);
  Report.row ~unit_:"words" ~name:"router words at create"
    ~paper:router_words_budget ~measured:router_words;
  Report.row ~unit_:"words" ~name:"cluster words at create"
    ~paper:cluster_words_budget ~measured:cluster_words;
  Report.row ~unit_:"words" ~name:"cluster words retained after drain"
    ~paper:retained_words_budget ~measured:retained_words;
  Report.row ~unit_:"w/crossing" ~name:"cluster minor words per fabric crossing"
    ~paper:crossing_words_budget ~measured:crossing_words;
  Report.row ~unit_:"ev/crossing" ~name:"cluster events per fabric crossing"
    ~paper:crossing_events_budget ~measured:crossing_events;
  Report.row ~unit_:"w/route"
    ~name:(Printf.sprintf "route-set generation words per route [n=%d]" routes_n)
    ~paper:generation_words_budget ~measured:generation_words;
  Report.row ~unit_:"w/route"
    ~name:(Printf.sprintf "RIP-loaded router words per route [n=%d]" routes_n)
    ~paper:rip_loaded_words_budget ~measured:rip_loaded_words;
  Report.row ~unit_:"frac" ~name:"run spread (minor words)" ~paper:0.10
    ~measured:(spread w1 w2);
  Report.row ~unit_:"frac" ~name:"run spread (events)" ~paper:0.10
    ~measured:(spread e1 e2);
  if w > words_per_packet_ceiling then begin
    incr failures;
    Report.info "FAIL: %.1f minor words/packet exceeds the %.0f ceiling" w
      words_per_packet_ceiling
  end;
  if res > fiber_resumes_ceiling then begin
    incr failures;
    Report.info "FAIL: %.2f fiber resumes/packet exceeds the %.1f ceiling" res
      fiber_resumes_ceiling
  end
