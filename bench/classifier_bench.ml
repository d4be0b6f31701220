(* Multi-field classification at flow scale: the tuple-space engine
   under rule-set growth (10 to 100k rules), Zipf-skewed flow caching
   and 10k-operation rule churn.  The classified cluster replay across
   batch capacities and domain counts is an arm of bench/equivalence.ml.

   Evidence, split the way the gate can hold it steady:

   - Deterministic rows (rule/tuple counts, differential divergences,
     probes per miss, flow-cache hit rates, churn staleness — everything
     derived from seeds) are identical on every host, so CI gates them
     both ways against the committed BENCH_classifier.json.
   - Wall-clock ns/lookup rows depend on the runner and are archived as
     the ns-per-packet-vs-rules curve, not gated.
   - [failures] makes the harness exit nonzero on any differential
     divergence or stale churn answer — after the JSON evidence is
     written. *)

open Forwarders

let failures = ref 0
let seed = 90210L
let sizes = [ 10; 100; 1_000; 10_000; 100_000 ]

(* The linear oracle is O(rules) per key; above this it stops being a
   practical cross-check and the 10k-rule result stands for the curve. *)
let differential_cap = 10_000

(* Keys drawn over the same 10.0.0.0/8 space Gen rules cover, so a
   meaningful fraction of lookups actually match something. *)
let gen_key rng =
  let a () =
    Int32.of_int
      ((10 lsl 24)
      lor (Sim.Rng.int rng 16 lsl 16)
      lor (1 + Sim.Rng.int rng 256))
  in
  {
    Packet.Flow.f_src = a ();
    f_src_port = 1024 + Sim.Rng.int rng 64;
    f_dst = a ();
    f_dst_port = (if Sim.Rng.int rng 2 = 0 then 80 else 443);
    f_proto = (if Sim.Rng.int rng 2 = 0 then 6 else 17);
    f_dscp = Sim.Rng.int rng 8 lsl 3;
  }

let of_rules rules =
  let t = Classifier.create () in
  List.iter (Classifier.add t) rules;
  t

let same_rule a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Classifier.compare_rule x y = 0
  | _ -> false

(* Best-of-reps wall-clock ns per lookup (same throttling hedge as
   bench/fib.ml).  The widest spread of any timed row ([Perf.spread_of]
   over the reps' lookup rates) becomes the experiment's run-spread row,
   which [bench/gate.py --refresh] checks before accepting the file as a
   baseline. *)
let timing_reps = 3
let worst_spread = ref 0.

let time_ns ~iters t keys =
  let k = Array.length keys in
  for i = 0 to k - 1 do
    ignore (Classifier.lookup t keys.(i))
  done;
  let one () =
    let t0 = Sys.time () in
    let i = ref 0 in
    for _ = 1 to iters do
      ignore (Classifier.lookup t keys.(!i));
      incr i;
      if !i = k then i := 0
    done;
    (Sys.time () -. t0) *. 1e9 /. float_of_int iters
  in
  let runs = List.init timing_reps (fun _ -> one ()) in
  let spread = Perf.spread_of (List.map (fun ns -> 1. /. ns) runs) in
  Report.info "  timing reps: %s ns/lookup, spread %.1f%%"
    (String.concat " " (List.map (Printf.sprintf "%.0f") runs))
    (100. *. spread);
  worst_spread := Float.max !worst_spread spread;
  List.fold_left Float.min infinity runs

(* --- rule-set scale curve -------------------------------------------- *)

let scale_curve () =
  List.iter
    (fun n ->
      let rng = Sim.Rng.create seed in
      let rules = Classifier.Gen.rules ~rng ~n () in
      let t = of_rules rules in
      Report.row ~unit_:"rules"
        ~name:(Printf.sprintf "rules installed [n=%d]" n)
        ~paper:(float_of_int n)
        ~measured:(float_of_int (Classifier.n_rules t));
      Report.row ~unit_:"tuples"
        ~name:(Printf.sprintf "tuples [n=%d]" n)
        ~paper:(float_of_int (min n 400))
        ~measured:(float_of_int (Classifier.n_tuples t));
      (* Differential pass on a fixed key set: tuple-space vs the naive
         linear scan.  Deterministic, gated at zero. *)
      let keys = Array.init 5_000 (fun _ -> gen_key rng) in
      if n <= differential_cap then begin
        let bad = ref 0 in
        Array.iter
          (fun k ->
            if
              not
                (same_rule (Classifier.lookup t k)
                   (Classifier.lookup_linear t k))
            then incr bad)
          keys;
        Report.row ~unit_:"lookups"
          ~name:(Printf.sprintf "differential divergences [n=%d]" n)
          ~paper:0. ~measured:(float_of_int !bad);
        if !bad > 0 then begin
          failures := !failures + !bad;
          Report.info
            "  CLASSIFIER FAILURE: %d divergence(s) vs linear oracle at n=%d"
            !bad n
        end
      end
      else
        Report.info
          "n=%6d: linear oracle skipped above %d rules (O(n) per key); \
           coverage rests on the gated %d-rule differential row"
          n differential_cap differential_cap;
      (* Pruning effectiveness on a cache-cold pass: deterministic. *)
      let t2 = of_rules rules in
      Array.iter (fun k -> ignore (Classifier.lookup t2 k)) keys;
      let ppm =
        float_of_int (Classifier.probes t2)
        /. float_of_int (max 1 (Classifier.cache_misses t2))
      in
      Report.row ~unit_:"probes/miss"
        ~name:(Printf.sprintf "probes per miss [n=%d]" n)
        ~paper:(float_of_int (min n 40))
        ~measured:ppm;
      (* Wall-clock: the miss path (fresh random keys defeat the cache)
         and, separately, how many ns the whole engine costs per packet
         at this rule count.  Host-dependent; archived, not gated. *)
      let iters = if n >= 100_000 then 100_000 else 300_000 in
      let miss_keys = Array.init 8_192 (fun _ -> gen_key rng) in
      let ns = time_ns ~iters t miss_keys in
      Report.info
        "n=%6d: %d tuples, %.1f probes/miss, %5.0f ns/lookup (miss-dominated)"
        n (Classifier.n_tuples t) ppm ns;
      Report.row ~unit_:"ns"
        ~name:(Printf.sprintf "lookup ns [n=%d]" n)
        ~paper:300. ~measured:ns)
    sizes

(* --- Zipf flow-cache sweep ------------------------------------------- *)

let zipf_sweep () =
  List.iter
    (fun s ->
      let rng = Sim.Rng.create seed in
      let rules = Classifier.Gen.rules ~rng ~n:10_000 () in
      let t = of_rules rules in
      (* A 20k-flow population probed 200k times with Zipf(s) rank
         popularity — the locality the flow cache exists for. *)
      let population = Array.init 20_000 (fun _ -> gen_key rng) in
      let z =
        Workload.Flows.Zipf.create ~rng ~n:(Array.length population) ~s
      in
      for _ = 1 to 200_000 do
        ignore (Classifier.lookup t population.(Workload.Flows.Zipf.draw z - 1))
      done;
      let hits = Classifier.cache_hits t and misses = Classifier.cache_misses t in
      let rate = 100. *. float_of_int hits /. float_of_int (hits + misses) in
      Report.info
        "zipf s=%.1f: %d hits / %d misses (%.1f%% hit), %d cache flushes"
        s hits misses rate (Classifier.cache_flushes t);
      Report.row ~unit_:"%"
        ~name:(Printf.sprintf "flow cache hit rate [zipf s=%.1f]" s)
        ~paper:(if s >= 1.0 then 80. else 45.)
        ~measured:rate;
      (* Wall-clock hit-path cost under the same skew: informational. *)
      let zipf_keys =
        Array.init 65_536 (fun _ ->
            population.(Workload.Flows.Zipf.draw z - 1))
      in
      let ns = time_ns ~iters:300_000 t zipf_keys in
      Report.row ~unit_:"ns"
        ~name:(Printf.sprintf "lookup ns [zipf s=%.1f, n=10000]" s)
        ~paper:100. ~measured:ns)
    [ 0.8; 1.1 ]

(* --- churn fuzz ------------------------------------------------------- *)

let churn_fuzz () =
  let ops = 10_000 in
  let rng = Sim.Rng.create seed in
  let pool = Array.of_list (Classifier.Gen.rules ~rng ~n:500 ()) in
  let key_pool = Array.init 64 (fun _ -> gen_key rng) in
  let t = Classifier.create ~cache_capacity:512 () in
  let live = Hashtbl.create 128 in
  let oracle k =
    Hashtbl.fold
      (fun r () best ->
        if Classifier.matches r k then
          match best with
          | None -> Some r
          | Some b -> if Classifier.compare_rule r b < 0 then Some r else best
        else best)
      live None
  in
  let stale = ref 0 and lookups = ref 0 and adds = ref 0 and removes = ref 0 in
  for _ = 1 to ops do
    match Sim.Rng.int rng 4 with
    | 0 ->
        let r = Sim.Rng.pick rng pool in
        Classifier.add t r;
        Hashtbl.replace live r ();
        incr adds
    | 1 ->
        let r = Sim.Rng.pick rng pool in
        if Classifier.remove t r then Hashtbl.remove live r;
        incr removes
    | _ ->
        let k = Sim.Rng.pick rng key_pool in
        incr lookups;
        if not (same_rule (Classifier.lookup t k) (oracle k)) then incr stale
  done;
  Report.info
    "churn: %d adds, %d removes, %d audited lookups (%d cache hits), %d \
     stale answers"
    !adds !removes !lookups (Classifier.cache_hits t) !stale;
  Report.row ~unit_:"ops" ~name:"churn ops audited" ~paper:10_000.
    ~measured:(float_of_int ops);
  Report.row ~unit_:"lookups" ~name:"churn stale answers" ~paper:0.
    ~measured:(float_of_int !stale);
  Report.row ~unit_:"hits" ~name:"churn cache hits audited"
    ~paper:150.
    ~measured:(float_of_int (Classifier.cache_hits t));
  if !stale > 0 then begin
    failures := !failures + !stale;
    Report.info
      "  CLASSIFIER FAILURE: flow cache served %d stale answer(s) under churn"
      !stale
  end;
  if Classifier.cache_hits t = 0 then begin
    incr failures;
    Report.info "  CLASSIFIER FAILURE: churn audit exercised no cache hits"
  end

let run () =
  Report.section
    "Tuple-space classifier: rule-set scale, 10 to 100k rules (extension)";
  scale_curve ();
  Report.section "Flow cache under Zipf-skewed traffic";
  zipf_sweep ();
  Report.section "Rule churn with staleness audit (10k operations)";
  churn_fuzz ();
  Report.row ~unit_:"frac" ~name:"run spread (lookup ns)" ~paper:0.10
    ~measured:!worst_spread
