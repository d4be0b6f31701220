(* End-to-end benchmark of the simulated router.

   One invocation runs one workload (or all of them) in one process:
   set-up (timed several times, median reported), warm-up, [windows]
   measured windows of fixed simulated length, then a drain with the sources
   stopped so every offered packet is settled.  It checks the outputs,
   prints every end-to-end metric by name and unit, and ends with one
   JSON line:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With [--trace 1] it runs the same workload twice — untraced, then with
   timers around each layer's public calls — prints the per-layer ledger
   and reports the per-layer metrics instead.  End-to-end numbers always
   come from an untraced run.  See README.md. *)

open Workloads

let windows = 20

(* {1 Counters read from outside the program} *)

type counters = {
  delivered : int;  (** frames out the external ports *)
  offered : int;
  refused : int;
  policy : int;  (** dropped by protocol processing (classifier rules) *)
  events : int;
  coalesced : int;
  batch_frames : int;
  batched : int;
  pkts_in : int;
  mps_in : int;
  enq_drop : int;
  cache_hits : int;
  sa_exits : int;
  sa_dropped : int;
  sa_route_misses : int;
  pe_processed : int;
  mf_hits : int;
  mf_misses : int;
  mf_probes : int;
  mf_memo : int;
  epochs : int;
  fabric : int;
  rip_changes : int;
}

let counters rig probe =
  let sum f = Array.fold_left (fun n r -> n + f r) 0 rig.routers in
  let v = Sim.Stats.Counter.value in
  let input f = sum (fun r -> v (f r.Router.istats)) in
  let sa f = sum (fun r -> v (f r.Router.sa.Router.Strongarm.stats)) in
  let mf f = match rig.mf with Some c -> f c | None -> 0 in
  let eng f = sum (fun r -> f r.Router.engine) in
  {
    delivered =
      (match rig.cluster with
      | Some c -> Cluster.delivered_total c
      | None -> Router.delivered_total rig.routers.(0));
    offered = Probe.offered probe;
    refused = Probe.refused probe;
    policy = input (fun s -> s.Router.Input_loop.drop_by_process);
    events = eng Sim.Engine.events_scheduled;
    coalesced =
      eng (fun e -> Sim.Engine.elided_waits e + Sim.Engine.absorbed_waits e);
    batch_frames = eng Sim.Engine.batch_frames_total;
    batched = eng Sim.Engine.batched_activations;
    pkts_in = input (fun s -> s.Router.Input_loop.pkts_in);
    mps_in = input (fun s -> s.Router.Input_loop.mps_in);
    enq_drop = input (fun s -> s.Router.Input_loop.enq_drop);
    (* Every packet in makes exactly one route-cache probe, so the
       cumulative hit rate times packets in is the hit count. *)
    cache_hits =
      sum (fun r ->
          int_of_float
            (Float.round
               (Iproute.Table.cache_hit_rate r.Router.routes
               *. float_of_int (v r.Router.istats.Router.Input_loop.pkts_in))));
    sa_exits =
      sa (fun s -> s.Router.Strongarm.local_done)
      + sa (fun s -> s.Router.Strongarm.bridged)
      + sa (fun s -> s.Router.Strongarm.dropped);
    sa_dropped = sa (fun s -> s.Router.Strongarm.dropped);
    sa_route_misses = sa (fun s -> s.Router.Strongarm.route_misses);
    pe_processed =
      sum (fun r -> v (Router.Pentium.stats r.Router.pe).Router.Pentium.processed);
    mf_hits = mf Forwarders.Classifier.cache_hits;
    mf_misses = mf Forwarders.Classifier.cache_misses;
    mf_probes = mf Forwarders.Classifier.probes;
    mf_memo = mf Forwarders.Classifier.batch_memo_hits;
    epochs = (match rig.cluster with Some c -> c.Cluster.epoch | None -> 0);
    fabric = (match rig.cluster with Some c -> Cluster.fabric_frames c | None -> 0);
    rip_changes =
      (match rig.rip with Some r -> Control.Rip.table_changes r | None -> 0);
  }

let violations rig =
  match rig.cluster with
  | Some c ->
      List.map
        (fun (src, v) -> src ^ ": " ^ v.Fault.Invariant.name ^ ": " ^ v.Fault.Invariant.detail)
        (Cluster.violations c)
  | None ->
      List.map
        (fun v -> v.Fault.Invariant.name ^ ": " ^ v.Fault.Invariant.detail)
        (Fault.Invariant.violations rig.routers.(0).Router.invariants)

let check_invariants rig =
  match rig.cluster with
  | Some c -> ignore (Cluster.check_invariants c : int)
  | None -> ignore (Router.check_invariants rig.routers.(0) : int)

let digest rig =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (Array.to_list
             (Array.map
                (fun r -> String.concat "," (Array.to_list (Router.port_delivery_digests r)))
                rig.routers))))

(* {1 One arm: set up, warm up, measure, drain, check} *)

type arm = {
  setups_s : float array;  (** each timed set-up *)
  domains : int;  (** OCaml domains the simulation ran on *)
  pps : float array;  (** delivered per host second, per window *)
  wall_ns : int;  (** host ns over the windows *)
  c0 : counters;  (** at the first window's start *)
  c1 : counters;  (** at the last window's end *)
  fin : counters;  (** after the drain *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  peak_heap_mb : float;
      (** the major heap's high-water mark at the windows' end, before the
          benchmark's own drain and checks *)
  lat_samples : float array;  (** latency samples per window *)
  lat_p50 : float array;  (** per-window percentiles, simulated us *)
  lat_p99 : float array;
  digest : string;
  failures : string list;
  misdelivered : int;  (** bad stamps, malformed frames, wrong ports *)
  pool_recycles : int;
  pool_minted : int;
  depth_max : int;
  (* traced arm only *)
  gen : Probe.acc;
  inject : Probe.acc;
  process : Probe.acc;
  rip_apply : Probe.acc;
  mf_update : Probe.acc;
  audit_ns : float;
  snapshot_ns : float;
  fib_lookup_ns : float;
  mf_lookup_ns : float;
}

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let advance_us rig us =
  let n = int_of_float (Float.round (us /. rig.slice_us)) in
  for _ = 1 to n do
    rig.advance rig.slice_us
  done

let sum_acc probe f =
  let a = Probe.acc () in
  Array.iter
    (fun l ->
      let b = f l in
      a.Probe.calls <- a.Probe.calls + b.Probe.calls;
      a.Probe.ns <- a.Probe.ns + b.Probe.ns;
      a.Probe.words <- a.Probe.words + b.Probe.words;
      a.Probe.suspended <- a.Probe.suspended + b.Probe.suspended)
    probe.Probe.lanes;
  a

let reset_accs probe =
  Array.iter
    (fun l ->
      Probe.reset l.Probe.gen;
      Probe.reset l.Probe.inject;
      Probe.reset l.Probe.process)
    probe.Probe.lanes;
  Probe.reset probe.Probe.rip_apply;
  Probe.reset probe.Probe.mf_update

(* Replay [n] lookups over the run's own recorded keys; host ns each. *)
let replay_ns ~n keys lookup =
  let k = Array.length keys in
  if k = 0 then 0.
  else begin
    for i = 0 to k - 1 do
      lookup keys.(i)
    done;
    let t0 = Probe.now_ns () in
    for i = 0 to n - 1 do
      lookup keys.(i mod k)
    done;
    float_of_int (Probe.now_ns () - t0) /. float_of_int n
  end

let run_arm spec ~seed ~size ~plan ~traced ~setups ~spans =
  (* Held in a ref so the generated inputs (a million-route array for
     internet) are garbage once the last set-up is done. *)
  let fresh = ref (Some (spec.prepare ~seed size plan)) in
  let lat_cap =
    let run_us =
      plan.warmup_us +. (float_of_int plan.windows *. plan.window_us) +. drain_us_max
    in
    (* Each lane gets twice its even share, plus headroom for tiny runs. *)
    int_of_float (2. *. spec.offered_pps *. run_us *. 1e-6 /. float_of_int spec.lanes)
    + 10_000
  in
  let n_sources = spec.lanes * n_ports in
  let last = ref None in
  let setup_times =
    Array.init setups (fun _ ->
        last := None;
        Gc.compact ();
        let build = Option.get !fresh () in
        let probe = Probe.create ~traced ~n_sources ~n_lanes:spec.lanes ~lat_cap in
        let t0 = Probe.now_ns () in
        let rig = build ~traced probe in
        let t1 = Probe.now_ns () in
        last := Some (rig, probe);
        float_of_int (t1 - t0) *. 1e-9)
  in
  fresh := None;
  let rig, probe = Option.get !last in
  advance_us rig plan.warmup_us;
  probe.Probe.window_start <- rig.now_ps ();
  reset_accs probe;
  let audit_ns = ref 0 and snapshot_ns = ref 0 in
  let c0 = counters rig probe in
  let gc = Sim.Gc_stats.create () in
  let wall_ns = ref 0 in
  let marks = Array.make (plan.windows + 1) (Probe.marks probe) in
  let pps =
    Array.init plan.windows (fun w ->
        let d0 = (counters rig probe).delivered in
        let t0 = Probe.now_ns () in
        advance_us rig plan.window_us;
        let t1 = Probe.now_ns () in
        let d1 = (counters rig probe).delivered in
        wall_ns := !wall_ns + (t1 - t0);
        marks.(w + 1) <- Probe.marks probe;
        if traced then begin
          (* One extra audit and snapshot per window end, outside the
             window's timer: guards for instrumentation changes. *)
          let a0 = Probe.now_ns () in
          check_invariants rig;
          let a1 = Probe.now_ns () in
          Array.iter (fun r -> ignore (Router.telemetry_snapshot r : Telemetry.Json.t)) rig.routers;
          let a2 = Probe.now_ns () in
          audit_ns := !audit_ns + (a1 - a0);
          snapshot_ns := !snapshot_ns + (a2 - a1)
        end;
        float_of_int (d1 - d0) *. 1e9 /. float_of_int (max 1 (t1 - t0)))
  in
  let c1 = counters rig probe in
  let minor_words = Sim.Gc_stats.minor_words gc in
  let promoted_words = Sim.Gc_stats.promoted_words gc in
  let major_collections = Sim.Gc_stats.major_collections gc in
  let gen = sum_acc probe (fun l -> l.Probe.gen) in
  let inject = sum_acc probe (fun l -> l.Probe.inject) in
  let process = sum_acc probe (fun l -> l.Probe.process) in
  let rip_apply = Probe.copy probe.Probe.rip_apply in
  let mf_update = Probe.copy probe.Probe.mf_update in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  (* Drain: stop the sources and run until a slice delivers nothing, so
     every offered packet is delivered, dropped, or lost for good. *)
  probe.Probe.stopped <- true;
  let rec drain spent last =
    if spent < drain_us_max then begin
      advance_us rig 1_000.;
      let d = (counters rig probe).delivered in
      if d <> last then drain (spent +. 1_000.) d
    end
  in
  drain 0. (counters rig probe).delivered;
  let fin = counters rig probe in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter (fun v -> fail "invariant violated: %s" v) (violations rig);
  let lanes f = Probe.sum_lanes probe f in
  if lanes (fun l -> l.Probe.bad_stamp) > 0 then
    fail "%d deliveries with an unknown or repeated stamp"
      (lanes (fun l -> l.Probe.bad_stamp));
  if lanes (fun l -> l.Probe.bad_frame) > 0 then
    fail "%d malformed deliveries" (lanes (fun l -> l.Probe.bad_frame));
  if lanes (fun l -> l.Probe.bad_route) > 0 then
    fail "%d deliveries on a port the FIB does not name"
      (lanes (fun l -> l.Probe.bad_route));
  if lanes (fun l -> l.Probe.lat_overflow) > 0 then
    fail "latency store overflowed by %d samples"
      (lanes (fun l -> l.Probe.lat_overflow));
  if lanes (fun l -> l.Probe.delivered) <> fin.delivered then
    fail "router delivered %d frames, the probe saw %d" fin.delivered
      (lanes (fun l -> l.Probe.delivered));
  let lost = fin.offered - fin.delivered - fin.policy in
  if lost < 0 then fail "negative loss %d" lost;
  let share = float_of_int fin.delivered /. float_of_int (max 1 (fin.offered - fin.policy)) in
  if share < spec.floor then
    fail "delivered %.4f of the non-policy offered load, below the %.2f floor"
      share spec.floor;
  (* Exact percentiles of each window's deliveries, simulated us. *)
  let windowed =
    List.filter_map
      (fun w ->
        let a = Probe.samples probe ~from:marks.(w) ~upto:marks.(w + 1) in
        let p q = float_of_int (Probe.percentile a q) /. 1e6 in
        if Array.length a = 0 then None
        else Some (float_of_int (Array.length a), p 0.50, p 0.99))
      (List.init plan.windows Fun.id)
  in
  if windowed = [] then fail "no latency samples";
  let lat f = Array.of_list (List.map f windowed) in
  let fib_lookup_ns, mf_lookup_ns =
    if not traced then (0., 0.)
    else begin
      let n = match size with Full -> 500_000 | Tiny -> 20_000 in
      let fib =
        let keys =
          Array.init probe.Probe.n_dsts (fun i -> Int32.of_int probe.Probe.dsts.{i})
        in
        let routes = rig.routers.(0).Router.routes in
        replay_ns ~n keys (fun k ->
            ignore (Iproute.Table.lookup routes k : Iproute.Table.nexthop option))
      in
      let mf =
        match rig.mf with
        | Some cls ->
            let keys =
              Array.init probe.Probe.n_fives (fun i ->
                  Option.get probe.Probe.fives.(i))
            in
            replay_ns ~n keys (fun k ->
                ignore (Forwarders.Classifier.lookup cls k : Forwarders.Classifier.rule option))
        | None -> 0.
      in
      (fib, mf)
    end
  in
  (match spans with
  | Some path when traced -> Probe.write_spans probe path
  | _ -> ());
  let pools f = Array.fold_left (fun n p -> n + f p) 0 rig.pools in
  {
    setups_s = setup_times;
    domains = rig.domains;
    pps;
    wall_ns = !wall_ns;
    c0;
    c1;
    fin;
    minor_words;
    promoted_words;
    major_collections;
    peak_heap_mb;
    lat_samples = lat (fun (n, _, _) -> n);
    lat_p50 = lat (fun (_, p, _) -> p);
    lat_p99 = lat (fun (_, _, p) -> p);
    digest = digest rig;
    failures = List.rev !failures;
    misdelivered =
      lanes (fun l -> l.Probe.bad_stamp + l.Probe.bad_frame + l.Probe.bad_route);
    pool_recycles = pools Packet.Frame_pool.recycles;
    pool_minted = pools Packet.Frame_pool.minted;
    depth_max =
      Array.fold_left
        (fun m r ->
          Array.fold_left (fun m q -> max m (Router.Squeue.peak_length q)) m
            r.Router.out_queues)
        0 rig.routers;
    gen;
    inject;
    process;
    rip_apply;
    mf_update;
    audit_ns = float_of_int !audit_ns /. float_of_int windows;
    snapshot_ns = float_of_int !snapshot_ns /. float_of_int windows;
    fib_lookup_ns;
    mf_lookup_ns;
  }

(* {1 The engine timed alone} *)

(* Two fibers alternating waits, so every wait really suspends: host ns
   and minor words per scheduled event (median of five). *)
let engine_alone () =
  let one () =
    let e = Sim.Engine.create () in
    let n = 50_000 in
    let fiber () =
      for _ = 1 to n do
        Sim.Engine.wait_i 1_000
      done
    in
    Sim.Engine.spawn e "a" fiber;
    Sim.Engine.spawn e "b" fiber;
    let w0 = Probe.minor_words () in
    let t0 = Probe.now_ns () in
    Sim.Engine.run_until_idle e;
    let t1 = Probe.now_ns () in
    let ev = float_of_int (Sim.Engine.events_scheduled e) in
    (float_of_int (t1 - t0) /. ev, float_of_int (Probe.minor_words () - w0) /. ev)
  in
  let runs = Array.init 5 (fun _ -> one ()) in
  (median (Array.map fst runs), median (Array.map snd runs))

(* {1 Metrics} *)

let per d x = if d = 0 then 0. else float_of_int x /. float_of_int d
let ratio d x = if d = 0. then 0. else x /. d

let fastest (a : arm) = Array.fold_left Float.max 0. a.pps

let end_to_end (a : arm) =
  let fin = a.fin in
  [
    ("sim_pps", fastest a, "pkt/s");
    ("setup_s", median a.setups_s, "s");
    ("peak_heap_mb", a.peak_heap_mb, "MB");
    ("sim_lat_p50_us", median a.lat_p50, "us");
    ("sim_lat_p99_us", median a.lat_p99, "us");
    ("delivered_frac", per (fin.offered - fin.policy) fin.delivered, "fraction");
  ]

(* Per-layer metrics: counts from the untraced arm [u] (identical in both
   arms), host time from the traced arm [t]. *)
let per_layer ~(u : arm) ~(t : arm) ~engine_ns ~engine_words =
  let d = u.c1.delivered - u.c0.delivered in
  let dc f = f u.c1 - f u.c0 in
  let pkt x = per d x in
  let pkts_in = dc (fun c -> c.pkts_in) in
  let td = t.c1.delivered - t.c0.delivered in
  let tpkt x = per td x in
  let events_per_pkt = pkt (dc (fun c -> c.events)) in
  let engine_ns_pkt = engine_ns *. events_per_pkt in
  let gen_ns = tpkt t.gen.Probe.ns and inject_ns = tpkt t.inject.Probe.ns in
  let process_ns = tpkt t.process.Probe.ns in
  (* Means over all windows, like the layer rows they are compared with. *)
  let total_ns = tpkt t.wall_ns in
  let cache_hits = dc (fun c -> c.cache_hits) in
  let lookups = pkts_in - cache_hits + dc (fun c -> c.sa_route_misses) in
  let mf_hits = dc (fun c -> c.mf_hits) and mf_misses = dc (fun c -> c.mf_misses) in
  let epochs = dc (fun c -> c.epochs) in
  let fib_lookups_per_pkt = pkt lookups in
  [
    ("engine.events_per_pkt", events_per_pkt, "count");
    ("engine.coalesced_waits_per_pkt", pkt (dc (fun c -> c.coalesced)), "count");
    ("engine.batch_frames_mean", per (dc (fun c -> c.batched)) (dc (fun c -> c.batch_frames)), "count");
    ("engine.ns_per_event", engine_ns, "ns");
    ("engine.words_per_event", engine_words, "words");
    ("engine.ns_per_pkt", engine_ns_pkt, "ns");
    ("gc.minor_words_per_pkt", ratio (float_of_int d) u.minor_words, "words");
    ("gc.promoted_words_per_pkt", ratio (float_of_int d) u.promoted_words, "words");
    ("gc.major_collections", float_of_int u.major_collections, "count");
    ("workload.gen_ns_per_pkt", gen_ns, "ns");
    ("workload.gen_words_per_pkt", tpkt t.gen.Probe.words, "words");
    ("mac_port.inject_ns_per_pkt", inject_ns, "ns");
    ("mac_port.refused_frac", per (dc (fun c -> c.offered)) (dc (fun c -> c.refused)), "fraction");
    ("input_loop.mps_per_pkt", per pkts_in (dc (fun c -> c.mps_in)), "count");
    ("process.ns_per_pkt", process_ns, "ns");
    ("process.words_per_pkt", tpkt t.process.Probe.words, "words");
    ("process.suspended_spans", float_of_int t.process.Probe.suspended, "count");
    ("route_cache.hit_ratio", per pkts_in cache_hits, "fraction");
    ("fib.lookups_per_pkt", fib_lookups_per_pkt, "count");
    ("fib.lookup_ns", t.fib_lookup_ns, "ns");
    ("fib.ns_per_pkt", t.fib_lookup_ns *. fib_lookups_per_pkt, "ns");
    ("fib.update_ns", per t.rip_apply.Probe.calls t.rip_apply.Probe.ns, "ns");
    ("rip.table_changes", float_of_int (dc (fun c -> c.rip_changes)), "count");
    ("mf_classifier.cache_hit_ratio", per (mf_hits + mf_misses) mf_hits, "fraction");
    ("mf_classifier.probes_per_miss", per mf_misses (dc (fun c -> c.mf_probes)), "count");
    ("mf_classifier.memo_hits_per_pkt", pkt (dc (fun c -> c.mf_memo)), "count");
    ("mf_classifier.lookup_ns", t.mf_lookup_ns, "ns");
    ("mf_classifier.update_ns", per t.mf_update.Probe.calls t.mf_update.Probe.ns, "ns");
    ("strongarm.fastpath_exit_share", per pkts_in (dc (fun c -> c.sa_exits)), "fraction");
    ("strongarm.drops", float_of_int (dc (fun c -> c.sa_dropped)), "count");
    ("pentium.processed", float_of_int (dc (fun c -> c.pe_processed)), "count");
    ("squeue.enq_drop_frac", per pkts_in (dc (fun c -> c.enq_drop)), "fraction");
    ("squeue.depth_max", float_of_int u.depth_max, "count");
    ("frame_pool.recycle_ratio", per (u.pool_recycles + u.pool_minted) u.pool_recycles, "fraction");
    ("invariant.audit_ns", t.audit_ns, "ns");
    ("telemetry.snapshot_ns", t.snapshot_ns, "ns");
    ("cluster.epoch_ns", per epochs t.wall_ns, "ns");
    ("cluster.mailbox_msgs_per_epoch", per epochs (dc (fun c -> c.fabric)), "count");
    ("ledger.total_ns_per_pkt", total_ns, "ns");
    ( "ledger.residual_ns_per_pkt",
      total_ns -. engine_ns_pkt -. gen_ns -. inject_ns -. process_ns,
      "ns" );
    (* Fastest windows, like [sim_pps]: the two arms run at different
       times, and host noise only ever slows a window. *)
    ("ledger.tracing_overhead", ratio (fastest t) (fastest u) -. 1., "fraction");
  ]

(* Host times of layers that run in only some workloads.  They are printed
   in the ledger and the metric lines but left out of the result line,
   where they would read a constant 0 on the other workloads. *)
let printed_only =
  [
    "process.ns_per_pkt";
    "fib.update_ns";
    "mf_classifier.lookup_ns";
    "mf_classifier.update_ns";
    "cluster.epoch_ns";
  ]

(* {1 Output} *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, value, unit_) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number value) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let print_metrics name metrics =
  List.iter
    (fun (m, v, u) -> Printf.printf "%-10s %-34s %18.6f %s\n" name m v u)
    metrics

let print_ledger name metrics (t : arm) (u : arm) =
  let get k = List.assoc k (List.map (fun (n, v, _) -> (n, v)) metrics) in
  let td = t.c1.delivered - t.c0.delivered in
  let calls (a : Probe.acc) = per td a.Probe.calls in
  let row label calls ns words =
    Printf.printf "  %-40s %10s %12.1f %12s\n" label calls ns words
  in
  let f = Printf.sprintf "%.3f" and w = Printf.sprintf "%.1f" in
  Printf.printf "ledger %s (traced run, per delivered packet)\n" name;
  Printf.printf "  %-40s %10s %12s %12s\n" "layer" "calls/pkt" "host ns/pkt" "words/pkt";
  row "engine dispatch (timed alone)" (f (get "engine.events_per_pkt"))
    (get "engine.ns_per_pkt")
    (w (get "engine.words_per_event" *. get "engine.events_per_pkt"));
  row "workload.gen" (f (calls t.gen)) (get "workload.gen_ns_per_pkt")
    (w (get "workload.gen_words_per_pkt"));
  row "mac_port.inject" (f (calls t.inject)) (get "mac_port.inject_ns_per_pkt")
    (w (per td t.inject.Probe.words));
  row "process (Router.default_process)" (f (calls t.process))
    (get "process.ns_per_pkt") (w (get "process.words_per_pkt"));
  row "  inside process: fib, replayed alone" (f (get "fib.lookups_per_pkt"))
    (get "fib.ns_per_pkt") "-";
  let mf_calls =
    per td (t.c1.mf_hits + t.c1.mf_misses - t.c0.mf_hits - t.c0.mf_misses)
  in
  row "  inside process: mf_classifier, replayed" (f mf_calls)
    (mf_calls *. get "mf_classifier.lookup_ns") "-";
  row "residual" "-" (get "ledger.residual_ns_per_pkt") "-";
  row "total (traced window ns / delivered)" "-" (get "ledger.total_ns_per_pkt")
    (w (per td (int_of_float t.minor_words)));
  Printf.printf
    "  residual holds: Chip_ctx cost booking, input/output loop bodies, token \
     rings, MAC rx/tx, Squeue and mutexes, StrongARM and Pentium fibers, \
     the delivery sink and digest, run_for barriers and the benchmark's \
     stamps and replay-key sampling%s\n"
    (if t.process.Probe.calls = 0 then
       ", and all of protocol processing (not wrapped in this workload)"
     else "");
  Printf.printf
    "  process spans that suspended (left out of the timing): %d of %d\n"
    t.process.Probe.suspended t.process.Probe.calls;
  Printf.printf "  control-plane writes: fib.update_ns %.1f, mf_classifier.update_ns %.1f\n"
    (get "fib.update_ns") (get "mf_classifier.update_ns");
  if t.c1.epochs > t.c0.epochs then
    Printf.printf "  cluster.epoch_ns %.1f\n" (get "cluster.epoch_ns");
  Printf.printf
    "  tracing overhead: untraced %.0f pkt/s, traced %.0f pkt/s in the \
     fastest window (%+.1f%%)\n"
    (fastest u) (fastest t)
    (100. *. get "ledger.tracing_overhead")

(* {1 Reference digests} *)

(* Lines "workload seed seconds digest" for the full-size runs, read
   relative to the repository root, where run.sh and dune exec start. *)
let reference_digest ~name ~seed ~seconds =
  let path = "benchmark/reference.txt" in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ w; s; sec; d ]
            when w = name && s = string_of_int seed
                 && float_of_string_opt sec = Some seconds ->
              Some d
          | _ -> scan ())
    in
    let r = scan () in
    close_in ic;
    r
  end

(* {1 Driver} *)

let run_workload spec ~seed ~seconds ~traced ~size ~spans =
  let window_us =
    match size with
    | Tiny -> spec.tiny_window_us
    | Full -> spec.sim_us_per_host_s *. seconds /. float_of_int windows
  in
  let warmup_us = match size with Full -> spec.warmup_us | Tiny -> spec.tiny_window_us in
  let plan = { warmup_us; window_us; windows } in
  let u =
    run_arm spec ~seed ~size ~plan ~traced:false
      ~setups:(if traced || size = Tiny then 1 else spec.setups)
      ~spans:None
  in
  Gc.compact ();
  Printf.printf
    "provenance %s: seed=%d nproc=%d domains=%d ocaml=%s size=%s warmup_us=%g \
     windows=%d window_us=%g seconds=%g traced=%b\n"
    spec.name seed
    (Domain.recommended_domain_count ())
    u.domains Sys.ocaml_version
    (match size with Full -> "full" | Tiny -> "tiny")
    plan.warmup_us windows plan.window_us seconds traced;
  Printf.printf "digest %s %s\n" spec.name u.digest;
  let show fmt a = String.concat " " (Array.to_list (Array.map (Printf.sprintf fmt) a)) in
  Printf.printf "setups %s: %s s\n" spec.name (show "%.4f" u.setups_s);
  Printf.printf "windows %s: %s pkt/s\n" spec.name (show "%.0f" u.pps);
  let fin = u.fin in
  let lost = fin.offered - fin.delivered - fin.policy in
  Printf.printf
    "accounting %s: offered %d, delivered %d, policy drops %d, refused at \
     ports %d, lost %d, latency samples per window >= %.0f\n"
    spec.name fin.offered fin.delivered fin.policy fin.refused lost
    (Array.fold_left Float.min infinity u.lat_samples);
  let failures = ref u.failures in
  (match reference_digest ~name:spec.name ~seed ~seconds with
  | Some d when size = Full && d <> u.digest ->
      failures :=
        !failures @ [ Printf.sprintf "digest %s differs from the reference %s" u.digest d ]
  | _ -> ());
  let metrics =
    if not traced then end_to_end u
    else begin
      let t =
        run_arm spec ~seed ~size ~plan ~traced:true ~setups:1 ~spans
      in
      if t.digest <> u.digest then
        failures :=
          !failures
          @ [ Printf.sprintf "traced digest %s differs from untraced %s" t.digest u.digest ];
      failures := !failures @ t.failures;
      let engine_ns, engine_words = engine_alone () in
      let m = per_layer ~u ~t ~engine_ns ~engine_words in
      print_ledger spec.name m t u;
      m
    end
  in
  print_metrics spec.name metrics;
  List.iter (fun f -> Printf.printf "FAILED %s: %s\n" spec.name f) !failures;
  let bad_values =
    List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics
  in
  List.iter (fun (n, _, _) -> Printf.printf "FAILED %s: %s is not finite\n" spec.name n) bad_values;
  let correct = !failures = [] && bad_values = [] in
  print_result ~correct ~attempted:fin.offered
    ~failed:(max 0 lost + u.misdelivered)
    (List.filter_map
       (fun (n, v, u) ->
         if List.mem n printed_only then None
         else Some (n, (if Float.is_finite v then v else 0.), u))
       metrics);
  correct

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 and spans = ref None and tiny = ref false in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "W  line64 | internet | churn | cluster4 (default: all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 42; 7 is held out)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  host seconds the windows are sized to (default 10)" );
      ("--trace", Arg.Set_int trace, "0|1  per-layer ledger instead of end-to-end");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE  write the traced spans here");
      ("--tiny", Arg.Set tiny, " smoke-test sizes: 2 ms windows, 10k routes, 1k rules");
    ]
  in
  let usage = "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !seconds <= 0. then begin
    prerr_endline "--seconds must be positive";
    exit 2
  end;
  match !workload with
  | None ->
      (* Each workload in a process of its own, so [peak_heap_mb], the
         process's high-water mark, is that workload's alone. *)
      let args = List.tl (Array.to_list Sys.argv) in
      let codes =
        List.map
          (fun s ->
            Sys.command
              (Filename.quote_command Sys.executable_name
                 (args @ [ "--workload"; s.name ])))
          Workloads.all
      in
      exit (if List.for_all (( = ) 0) codes then 0 else 1)
  | Some w -> (
      match List.find_opt (fun s -> s.name = w) Workloads.all with
      | None ->
          Printf.eprintf "unknown workload %S\n" w;
          exit 2
      | Some spec ->
          (* The minor heap bench/perf.ml and bench/alloc.ml run with, so
             the line64 history carries over. *)
          Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
          let ok =
            run_workload spec ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
              ~size:(if !tiny then Tiny else Full)
              ~spans:!spans
          in
          exit (if ok then 0 else 1))
