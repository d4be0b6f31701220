(* Fabric queue disciplines (PR 6): spec grammar, capacity/occupancy
   bounds, RED determinism and monotonicity, per-class service
   guarantees, backpressure watermarks, flush accounting. *)

module Fq = Cluster.Fabric_queue

let cfg spec =
  match Fq.parse spec with
  | Ok c -> c
  | Error m -> Alcotest.failf "bad queue spec %S: %s" spec m

(* Run [arrivals] — (inter-arrival ps, class, frame len) triples — through
   a fresh queue on a fresh engine; the payload of arrival [i] is [i].
   Returns the delivered payloads in service order plus the queue for
   counter inspection (the engine is drained, so occupancy is 0 unless
   frames were flushed). *)
let drive ?(seed = 7L) ?(body = fun _ -> ()) config arrivals =
  let e = Sim.Engine.create () in
  let out = ref [] in
  let q =
    Fq.create ~engine:e ~cfg:config ~rng:(Sim.Rng.create seed)
      ~deliver:(fun i -> out := i :: !out)
      ()
  in
  Sim.Engine.spawn e "arrivals" (fun () ->
      List.iteri
        (fun i (gap, cls, len) ->
          (* wait 0 would yield to the server fiber mid-batch; keep
             same-instant offers atomic so t = 0 backlogs are real *)
          if gap > 0 then Sim.Engine.wait_in e gap;
          ignore (Fq.offer q ~cls ~len i : bool))
        arrivals;
      body q);
  Sim.Engine.run_until_idle e;
  (List.rev !out, q)

(* --- spec grammar ------------------------------------------------------ *)

let spec_roundtrip () =
  List.iter
    (fun spec ->
      let c = cfg spec in
      let c' = cfg (Fq.to_spec c) in
      Alcotest.(check string)
        (Printf.sprintf "%S survives a parse/print cycle" spec)
        (Fq.to_spec c) (Fq.to_spec c'))
    [
      "none";
      "bypass";
      "taildrop:64";
      "taildrop:8@300";
      "red:32:4:16:0.2";
      "red:32:4:16:0.2:0.5";
      "red:16:2:12:1@250";
      "prio:24:4";
      "prio:24:8@100";
      "wrr:12:4,2,1";
      "wrr:12:1,1,1,1,1,1,1,1@500";
    ];
  List.iter
    (fun spec ->
      match Fq.parse spec with
      | Ok c ->
          Alcotest.failf "spec %S should be rejected, parsed as %S" spec
            (Fq.to_spec c)
      | Error _ -> ())
    [
      "taildrop";
      "taildrop:0";
      "taildrop:-3";
      "taildrop:8@0";
      "taildrop:8@-10";
      "red:8:6:4:0.2" (* min_th above max_th *);
      "red:8:2:6:1.5" (* max_p above 1 *);
      "red:8:2:6:0.2:0" (* wq outside (0,1] *);
      "prio:8:1" (* too few classes *);
      "prio:8:9" (* too many classes *);
      "wrr:8:4" (* one weight *);
      "wrr:8:4,0" (* zero weight *);
      "fifo:8";
    ]

let bypass_is_inert () =
  let c = cfg "none" in
  Alcotest.(check bool) "bypass recognised" true (Fq.is_bypass c);
  let out, q = drive c [ (0, 0, 64); (0, 3, 1500); (5, 0, 200) ] in
  Alcotest.(check (list int)) "synchronous in-order delivery" [ 0; 1; 2 ] out;
  Alcotest.(check int) "no occupancy" 0 (Fq.hwm q);
  Alcotest.(check int) "no pauses" 0 (Fq.pauses q);
  Alcotest.(check int) "no drops" 0 (Fq.dropped q)

(* --- capacity and conservation ---------------------------------------- *)

let qcheck_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity; queue conserves"
    ~count:60
    QCheck.(
      pair (int_range 0 3)
        (list_of_size Gen.(int_range 1 80)
           (triple (int_range 0 2_000_000) (int_range 0 7) (int_range 64 1500))))
    (fun (which, arrivals) ->
      let config =
        cfg
          (List.nth
             [ "taildrop:4@200"; "red:8:2:6:0.5@200"; "prio:6:4@200"; "wrr:5:3,2,1@200" ]
             which)
      in
      let out, q = drive config arrivals in
      let offered = List.length arrivals in
      Fq.hwm q <= config.Fq.capacity
      && Fq.occupancy q = 0
      && Fq.enqueued q = Fq.serviced q
      && List.length out = Fq.serviced q
      && Fq.enqueued q + Fq.dropped q = offered
      && Fq.dropped_tail q + Fq.dropped_red q = Fq.dropped q)

(* --- RED --------------------------------------------------------------- *)

let qcheck_red_monotone =
  QCheck.Test.make ~name:"RED drop probability is monotone in avg occupancy"
    ~count:500
    QCheck.(
      quad (int_range 0 32) (int_range 1 32) (float_range 0. 1.)
        (pair (float_range 0. 64.) (float_range 0. 64.)))
    (fun (a, b, max_p, (avg1, avg2)) ->
      let min_th = min a b and max_th = max a b + 1 in
      let lo = min avg1 avg2 and hi = max avg1 avg2 in
      let p_lo = Fq.red_drop_prob ~min_th ~max_th ~max_p ~avg:lo in
      let p_hi = Fq.red_drop_prob ~min_th ~max_th ~max_p ~avg:hi in
      p_lo <= p_hi && p_lo >= 0. && p_hi <= 1.)

(* A congested RED queue replays bit-identically from the same seed: same
   deliveries in the same order, same drop counts, and the drop pattern
   really exercised the probabilistic ramp. *)
let red_seed_replay () =
  (* 84-byte wire frames at 100 Mbps take 6.72 us each; arrivals every
     1 us overwhelm the queue, pushing the EWMA through the RED ramp. *)
  let arrivals = List.init 200 (fun _ -> (1_000_000, 0, 64)) in
  let config = cfg "red:16:2:12:0.5@100" in
  let run seed = drive ~seed config arrivals in
  let out1, q1 = run 42L in
  let out2, q2 = run 42L in
  Alcotest.(check (list int)) "same seed, same deliveries" out1 out2;
  Alcotest.(check int) "same seed, same RED drops" (Fq.dropped_red q1)
    (Fq.dropped_red q2);
  Alcotest.(check int) "same seed, same tail drops" (Fq.dropped_tail q1)
    (Fq.dropped_tail q2);
  Alcotest.(check bool) "the ramp actually dropped" true (Fq.dropped_red q1 > 0);
  Alcotest.(check bool) "and admitted" true (Fq.serviced q1 > 0)

(* --- per-class service ------------------------------------------------- *)

(* Strict priority: everything enqueued at t = 0, so the service order
   must be exactly highest class first. *)
let prio_strict_order () =
  let arrivals =
    List.map (fun cls -> (0, cls, 64)) [ 0; 2; 1; 0; 2; 1; 3; 0 ]
  in
  let out, q = drive (cfg "prio:16:4@100") arrivals in
  let classes = List.map (fun i -> List.nth [ 0; 2; 1; 0; 2; 1; 3; 0 ] i) out in
  let sorted = List.sort (fun a b -> compare b a) classes in
  Alcotest.(check (list int)) "highest class always served first" sorted classes;
  Alcotest.(check int) "all served" (List.length arrivals) (Fq.serviced q)

(* WRR non-starvation: with every frame present from t = 0, a class with
   remaining backlog is served at least once in any window of
   sum(weights) consecutive services. *)
let qcheck_wrr_no_starvation =
  QCheck.Test.make
    ~name:"WRR never starves a backlogged class beyond one rotation" ~count:60
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (n0, n1, n2) ->
      let counts = [| n0; n1; n2 |] in
      let arrivals =
        List.concat
          (List.init 3 (fun cls ->
               List.init counts.(cls) (fun _ -> (0, cls, 64))))
      in
      let out, q = drive (cfg "wrr:15:4,2,1@100") arrivals in
      let weights = [| 4; 2; 1 |] in
      let sum_w = Array.fold_left ( + ) 0 weights in
      (* payload order is class 0 frames, then class 1, then class 2 *)
      let cls_of p = if p < n0 then 0 else if p < n0 + n1 then 1 else 2 in
      let served = Array.map (fun c -> ref c) counts in
      let ok = ref (Fq.serviced q = n0 + n1 + n2) in
      List.iteri
        (fun pos p ->
          let c = cls_of p in
          (* before this service, class c had backlog since t = 0; its
             previous service (or the start) must be < sum_w ago *)
          let last =
            let rec find i =
              if i < 0 then -1
              else if cls_of (List.nth out i) = c then i
              else find (i - 1)
            in
            find (pos - 1)
          in
          if pos - last > sum_w then ok := false;
          decr served.(c))
        out;
      Array.iter (fun left -> if !left <> 0 then ok := false) served;
      !ok)

(* --- backpressure and flush -------------------------------------------- *)

let pause_watermarks () =
  let config = cfg "taildrop:8@100" in
  let observed_pause = ref false in
  let body q = observed_pause := Fq.paused q in
  (* 8 back-to-back offers fill the queue past pause_hi = 6 *)
  let out, q = drive ~body config (List.init 8 (fun _ -> (0, 0, 64))) in
  Alcotest.(check bool) "paused once above the high watermark" true
    !observed_pause;
  Alcotest.(check int) "one pause episode" 1 (Fq.pauses q);
  Alcotest.(check bool) "unpaused after draining" false (Fq.paused q);
  Alcotest.(check int) "all frames eventually served" 8 (List.length out)

let flush_strands_in_service () =
  let e = Sim.Engine.create () in
  let out = ref 0 in
  let q =
    Fq.create ~engine:e ~cfg:(cfg "taildrop:8@100") ~rng:(Sim.Rng.create 3L)
      ~deliver:(fun _ -> incr out)
      ()
  in
  Sim.Engine.spawn e "driver" (fun () ->
      for i = 0 to 5 do
        ignore (Fq.offer q ~cls:0 ~len:64 i : bool)
      done;
      (* 84-byte frames at 100 Mbps: 6.72 us each.  At 8 us frame 0 is
         delivered and frame 1 is on the wire; four frames are queued. *)
      Sim.Engine.wait_in e 8_000_000;
      let n = Fq.flush q in
      Alcotest.(check int) "flush returns the queued frames" 4 n);
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "only the pre-flush service delivered" 1 !out;
  Alcotest.(check int) "in-service frame stranded as flushed" 5 (Fq.flushed q);
  Alcotest.(check int) "occupancy fully released" 0 (Fq.occupancy q);
  Alcotest.(check int) "enqueued = serviced + flushed" (Fq.enqueued q)
    (Fq.serviced q + Fq.flushed q)

let tests =
  [
    Alcotest.test_case "spec parse/print round-trip and rejects" `Quick
      spec_roundtrip;
    Alcotest.test_case "bypass delivers synchronously, counts nothing" `Quick
      bypass_is_inert;
    Alcotest.test_case "RED congested replay is bit-identical per seed" `Quick
      red_seed_replay;
    Alcotest.test_case "strict priority serves highest class first" `Quick
      prio_strict_order;
    Alcotest.test_case "pause engages above hi watermark, clears on drain"
      `Quick pause_watermarks;
    Alcotest.test_case "flush strands the in-service frame accountably" `Quick
      flush_strands_in_service;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_occupancy_bounded; qcheck_red_monotone; qcheck_wrr_no_starvation ]
