(* Cluster simulator throughput: wall-clock packets per second for the
   4-member cluster at 1, 2 and 4 worker domains.  The property that
   makes the parallelism admissible at all — a parallel run is
   bit-for-bit identical to a sequential one — is gated by
   bench/equivalence.ml.

   The gate mirrors bench/perf.ml: raw pps divided by the in-process
   checksum calibration gives a host-independent score for the
   domains=1 configuration, and CI fails on >15% regression against the
   committed BENCH_cluster_perf.json.  Only domains=1 is scored because
   the parallel speedup depends on how many physical cores the host
   grants (CI containers often grant one), which would make a
   speedup-based gate flap.

   The measured speedup curve is recorded honestly alongside the host's
   core count ([Domain.recommended_domain_count]); on a multicore host
   the 4-domain row is expected to reach the 1.7x target, on a 1-core
   container it documents the barrier overhead instead. *)

let members = 4
let ports_per_member = 4
let domain_counts = [ 1; 2; 4 ]

let warmup_us = 1_000.
let measured_us = 10_000.
let reps = 3

(* Baseline measured on the reference container (1 core granted,
   domains=1, best of 3) with the same harness.  As in bench/perf.ml the
   score is pps divided by the same-process checksum calibration, so it
   transfers across hosts well enough for a 15% threshold. *)
let baseline_d1_pps = 25_800.
let baseline_score = 0.0197

(* One timed run: warm up, then measure wall-clock (not CPU) seconds —
   with several domains the CPU clock counts every core and would hide
   the speedup being measured. *)
let measure ~domains () =
  let c = Cluster.create ~members ~ports_per_member ~domains ~frame_pool:true () in
  Equivalence.spawn_line_rate c ~seed:42;
  Cluster.run_for c ~us:warmup_us;
  let d0 = Cluster.delivered_total c in
  let t0 = Unix.gettimeofday () in
  Cluster.run_for c ~us:measured_us;
  let dt = Unix.gettimeofday () -. t0 in
  let out = Cluster.delivered_total c - d0 in
  if dt <= 0. then infinity else float_of_int out /. dt

let best ~domains () =
  (* Discarded priming run, as in bench/perf.ml: keep cold-start warmth
     out of the reported spread. *)
  ignore (measure ~domains () : float);
  let runs = List.init reps (fun _ -> measure ~domains ()) in
  (List.fold_left max (List.hd runs) (List.tl runs), runs)

let run () =
  Report.section
    "Cluster throughput across domains (conservative lookahead execution)";
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let cores = Domain.recommended_domain_count () in
  Report.info "host grants %d core(s); speedup is core-bound" cores;
  let calib = Perf.calibrate () in
  let curve_runs =
    List.map (fun domains -> (domains, best ~domains ())) domain_counts
  in
  let curve = List.map (fun (d, (b, _)) -> (d, b)) curve_runs in
  let _, d1_runs = List.assoc 1 curve_runs in
  let d1_pps = List.assoc 1 curve in
  let d1_spread = Perf.spread_of d1_runs in
  let score = d1_pps /. calib in
  Report.info "calibration: %.0f checksum/s; normalized score %.4f" calib
    score;
  Report.info "reps (domains=1): %s pps; spread %.1f%%"
    (String.concat ", " (List.map (Printf.sprintf "%.0f") d1_runs))
    (100. *. d1_spread);
  List.iter
    (fun (domains, pps) ->
      Report.row ~unit_:"pps"
        ~name:(Printf.sprintf "wall pps (domains=%d)" domains)
        ~paper:(if domains = 1 then baseline_d1_pps else d1_pps)
        ~measured:pps)
    curve;
  let d4_pps = List.assoc 4 curve in
  (* paper = the acceptance target on a >= 4-core host. *)
  Report.row ~unit_:"x" ~name:"speedup (domains=4 vs 1)" ~paper:1.7
    ~measured:(d4_pps /. d1_pps);
  Report.row ~unit_:"pkt/cksum" ~name:"normalized score (domains=1)"
    ~paper:baseline_score ~measured:score;
  (* paper = the refresh-acceptance ceiling (see bench/perf.ml). *)
  Report.row ~unit_:"frac" ~name:"run spread (domains=1)" ~paper:0.10
    ~measured:d1_spread;
  Report.attach "cluster_perf"
    (Telemetry.Json.Obj
       [
         ("host_cores", Telemetry.Json.Int cores);
         ( "scaling",
           Telemetry.Json.Obj
             (List.map
                (fun (domains, pps) ->
                  (Printf.sprintf "domains=%d" domains, Telemetry.Json.Float pps))
                curve) );
         ("speedup_4v1", Telemetry.Json.Float (d4_pps /. d1_pps));
         ("normalized_score_d1", Telemetry.Json.Float score);
       ])
