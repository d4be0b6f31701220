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
     fiber actually suspending, paid ~events/packet times per packet
   - words/packet, events/packet, promoted words over the measured
     window for the whole router

   Unlike wall-clock pps, allocation counts are exact and repeatable —
   the spread rows exist for gate.py --refresh symmetry and sit near
   zero.  CI gates "minor words/packet" (and friends) against the
   committed BENCH_alloc.json with a max-ratio ceiling: getting *worse*
   fails; getting better passes and deserves a re-baseline. *)

let failures = ref 0

(* Hard ceiling asserted locally (not just vs the committed baseline):
   the steady-state quotient must stay under this many minor words per
   forwarded packet.  Chosen above the measured value (~63) with room
   for host-dependent warm-up; tighten as further waves land. *)
let words_per_packet_ceiling = 90.

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

(* The bench/perf.ml line-rate router, instrumented for allocation:
   returns (minor words/pkt, promoted words/pkt, events/pkt, minor
   collections) over the measured phase. *)
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
  let ev0 = Sim.Engine.events_scheduled r.Router.engine in
  let gc = Sim.Gc_stats.create () in
  Router.run_for r ~us:measured_us;
  let out =
    Sim.Stats.Counter.value r.Router.ostats.Router.Output_loop.pkts_out - out0
  in
  let ev = Sim.Engine.events_scheduled r.Router.engine - ev0 in
  let pkts = float_of_int (max 1 out) in
  ( Sim.Gc_stats.minor_words gc /. pkts,
    Sim.Gc_stats.promoted_words gc /. pkts,
    float_of_int ev /. pkts,
    Sim.Gc_stats.minor_collections gc )

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
  let w1, p1, e1, _gcs1 = router_alloc () in
  let w2, p2, e2, gcs2 = router_alloc () in
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
               events/pkt, %d minor collections (measured phase)"
    w p e gcs2;
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
  Report.row ~unit_:"frac" ~name:"run spread (minor words)" ~paper:0.10
    ~measured:(spread w1 w2);
  Report.row ~unit_:"frac" ~name:"run spread (events)" ~paper:0.10
    ~measured:(spread e1 e2);
  if w > words_per_packet_ceiling then begin
    incr failures;
    Report.info "FAIL: %.1f minor words/packet exceeds the %.0f ceiling" w
      words_per_packet_ceiling
  end
