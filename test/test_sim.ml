(* Tests for the discrete-event engine and its resources. *)

let check = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let heap_orders_by_time_then_seq () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:5L ~seq:0 "a";
  Sim.Heap.push h ~time:3L ~seq:1 "b";
  Sim.Heap.push h ~time:3L ~seq:2 "c";
  Sim.Heap.push h ~time:1L ~seq:3 "d";
  let order = ref [] in
  let rec drain () =
    match Sim.Heap.pop h with
    | None -> ()
    | Some (_, _, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "fifo at equal times" [ "d"; "b"; "c"; "a" ]
    (List.rev !order)

let heap_qcheck =
  QCheck.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck.(list (pair (int_bound 1000) small_nat))
    (fun events ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun seq (t, _) -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq ())
        events;
      let rec drain last ok =
        match Sim.Heap.pop h with
        | None -> ok
        | Some (t, _, ()) -> drain t (ok && t >= last)
      in
      drain Int64.min_int true)

let wait_advances_clock () =
  let e = Sim.Engine.create () in
  let seen = ref 0L in
  Sim.Engine.spawn e "f" (fun () ->
      Sim.Engine.wait_in e 100;
      Sim.Engine.wait_in e 23;
      seen := Sim.Engine.time e);
  Sim.Engine.run_until_idle e;
  check64 "clock" 123L !seen;
  check "no live fibers" 0 (Sim.Engine.live_fibers e)

(* A fiber of [a] may neither wait on [b]'s clock nor park on a cell of
   [b]: suspending it there would resume it on [a]'s own clock, or let
   [b]'s run loop resume a continuation of [a]. *)
let outcome f =
  match f () with
  | () -> "returned"
  | exception Invalid_argument _ -> "Invalid_argument"

let cross_engine_wait_rejected () =
  let a = Sim.Engine.create () and b = Sim.Engine.create () in
  let got = ref "not run" and negative = ref "not run" in
  Sim.Engine.spawn a "waits on b" (fun () ->
      got := outcome (fun () -> Sim.Engine.wait_in b 5000);
      negative := outcome (fun () -> Sim.Engine.wait_in a (-1)));
  Sim.Engine.run_until_idle a;
  Alcotest.(check string) "wait_in b from a fiber of a" "Invalid_argument" !got;
  Alcotest.(check string) "negative wait" "Invalid_argument" !negative;
  check64 "a's clock unmoved" 0L (Sim.Engine.time a);
  check64 "b's clock unmoved" 0L (Sim.Engine.time b);
  check "b scheduled nothing" 0 (Sim.Engine.events_scheduled b)

let cross_engine_park_rejected () =
  let a = Sim.Engine.create () and b = Sim.Engine.create () in
  let c = Sim.Engine.make_cell b in
  let got = ref "not run" in
  Sim.Engine.spawn a "parks on b's cell" (fun () ->
      got := outcome (fun () -> Sim.Engine.park c));
  Sim.Engine.run_until_idle a;
  Alcotest.(check string) "park on b's cell from a fiber of a"
    "Invalid_argument" !got;
  check "no fiber left parked" 0 (Sim.Engine.live_fibers a)

(* A nested run interrupts the engine that started it: a fiber of [b],
   run from inside a fiber of [a], is no fiber of [a] and may neither
   wait on [a] nor park on [a]'s cell.  Once the nested run returns, the
   fiber of [a] waits on [a] again. *)
let nested_wait_rejected () =
  let a = Sim.Engine.create () and b = Sim.Engine.create () in
  let got = ref "not run" and after = ref "not run" in
  Sim.Engine.spawn b "waits on a" (fun () ->
      got := outcome (fun () -> Sim.Engine.wait_in a 100));
  Sim.Engine.spawn a "runs b" (fun () ->
      Sim.Engine.run_until_idle b;
      after := outcome (fun () -> Sim.Engine.wait_in a 7));
  Sim.Engine.run_until_idle a;
  Alcotest.(check string) "wait_in a from a nested fiber of b"
    "Invalid_argument" !got;
  Alcotest.(check string) "a's fiber waits again after the nested run"
    "returned" !after;
  check64 "a's clock moved only by its own fiber" 7L (Sim.Engine.time a);
  check64 "b's clock unmoved" 0L (Sim.Engine.time b)

let nested_park_rejected () =
  let a = Sim.Engine.create () and b = Sim.Engine.create () in
  let c = Sim.Engine.make_cell a in
  let got = ref "not run" in
  Sim.Engine.spawn b "parks on a's cell" (fun () ->
      got := outcome (fun () -> Sim.Engine.park c));
  Sim.Engine.spawn a "runs b" (fun () -> Sim.Engine.run_until_idle b);
  Sim.Engine.run_until_idle a;
  Alcotest.(check string) "park on a's cell from a nested fiber of b"
    "Invalid_argument" !got;
  check "no fiber of b left parked" 0 (Sim.Engine.live_fibers b);
  check "no fiber of a left parked" 0 (Sim.Engine.live_fibers a)

let run_until_bounds_time () =
  let e = Sim.Engine.create () in
  let ticks = ref 0 in
  Sim.Engine.spawn e "ticker" (fun () ->
      let rec go () =
        Sim.Engine.wait_in e 10;
        incr ticks;
        go ()
      in
      go ());
  Sim.Engine.run e ~until:105L;
  check "ticks" 10 !ticks;
  check64 "time stops at bound" 105L (Sim.Engine.time e)

let interleaving_is_deterministic () =
  let trace () =
    let e = Sim.Engine.create () in
    let log = ref [] in
    for i = 0 to 4 do
      Sim.Engine.spawn e
        (Printf.sprintf "f%d" i)
        (fun () ->
          for _ = 1 to 3 do
            Sim.Engine.wait_in e (10 + i);
            log := (i, Sim.Engine.time e) :: !log
          done)
    done;
    Sim.Engine.run_until_idle e;
    List.rev !log
  in
  Alcotest.(check bool) "two runs identical" true (trace () = trace ())

let suspend_and_wake () =
  let e = Sim.Engine.create () in
  let waker = ref None in
  let woke_at = ref 0L in
  Sim.Engine.spawn e "sleeper" (fun () ->
      Sim.Engine.suspend (fun w -> waker := Some w);
      woke_at := Sim.Engine.time e);
  Sim.Engine.spawn e "waker" (fun () ->
      Sim.Engine.wait_in e 500;
      Option.get !waker ());
  Sim.Engine.run_until_idle e;
  check64 "woke at waker's time" 500L !woke_at

let deadlock_detected () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e "stuck" (fun () ->
      Sim.Engine.suspend (fun _ -> ()));
  Alcotest.check_raises "deadlock"
    (Sim.Engine.Deadlock "1 fiber(s) suspended with no pending event")
    (fun () -> Sim.Engine.run_until_idle e)

let server_serializes () =
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e in
  let done_at = Array.make 3 0L in
  for i = 0 to 2 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Sim.Server.access s ~occupancy:100L ~latency:100L;
        done_at.(i) <- Sim.Engine.time e)
  done;
  Sim.Engine.run_until_idle e;
  Alcotest.(check (array int64)) "staircase" [| 100L; 200L; 300L |] done_at;
  check64 "busy time" 300L (Sim.Server.busy_time s)

let server_latency_exceeds_occupancy () =
  (* Pipelined device: second requester queues only behind occupancy. *)
  let e = Sim.Engine.create () in
  let s = Sim.Server.create e in
  let done_at = Array.make 2 0L in
  for i = 0 to 1 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Sim.Server.access s ~occupancy:10L ~latency:100L;
        done_at.(i) <- Sim.Engine.time e)
  done;
  Sim.Engine.run_until_idle e;
  check64 "first" 100L done_at.(0);
  check64 "second starts at 10" 110L done_at.(1)


(* Hold the token for [f]: what every ring member does around its serial
   section. *)
let with_token ring i f =
  ignore (Sim.Token_ring.acquire ring i : int);
  f ();
  Sim.Token_ring.release ring i

let token_ring_strict_rotation () =
  let e = Sim.Engine.create () in
  let ring = Sim.Token_ring.create ~members:4 e in
  let order = ref [] in
  for i = 0 to 3 do
    Sim.Engine.spawn e
      (Printf.sprintf "m%d" i)
      (fun () ->
        Sim.Token_ring.join ring i;
        for _ = 1 to 3 do
          with_token ring i (fun () ->
              order := i :: !order;
              Sim.Engine.wait_in e 7)
        done)
  done;
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "rotation order"
    [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3 ]
    (List.rev !order);
  check "rotations" 3 (Sim.Token_ring.rotations ring)

let token_ring_mutual_exclusion () =
  let e = Sim.Engine.create () in
  let ring = Sim.Token_ring.create ~members:3 e in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for i = 0 to 2 do
    Sim.Engine.spawn e
      (Printf.sprintf "m%d" i)
      (fun () ->
        Sim.Token_ring.join ring i;
        for _ = 1 to 5 do
          with_token ring i (fun () ->
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Sim.Engine.wait_in e 3;
              decr inside);
          Sim.Engine.wait_in e 11
        done)
  done;
  Sim.Engine.run_until_idle e;
  check "never two holders" 1 !max_inside

let token_ring_pass_delay () =
  let e = Sim.Engine.create () in
  let ring = Sim.Token_ring.create ~pass_ps:5L ~members:2 e in
  let times = ref [] in
  for i = 0 to 1 do
    Sim.Engine.spawn e
      (Printf.sprintf "m%d" i)
      (fun () ->
        Sim.Token_ring.join ring i;
        for _ = 1 to 2 do
          with_token ring i (fun () ->
              times := Sim.Engine.time e :: !times)
        done)
  done;
  Sim.Engine.run_until_idle e;
  (* On-demand passing: the token rests at the last holder's station
     instead of circulating, so m0's two zero-hold acquisitions are free
     (the token is already at its slot), then m1 pays exactly one hop
     (5 ps) to pull it over and re-acquires for free. *)
  Alcotest.(check (list int64)) "pass delays" [ 0L; 0L; 5L; 5L ]
    (List.rev !times)

let token_ring_on_demand () =
  let e = Sim.Engine.create () in
  let ring = Sim.Token_ring.create ~pass_ps:5L ~members:4 e in
  let times = ref [] in
  (* Members 0, 1 and 3 join but never acquire; an idle station must not
     block (or slow) the token's travel to the one member that works. *)
  for i = 0 to 3 do
    Sim.Engine.spawn e
      (Printf.sprintf "m%d" i)
      (fun () ->
        Sim.Token_ring.join ring i;
        if i = 2 then
          for _ = 1 to 3 do
            with_token ring i (fun () ->
                times := Sim.Engine.time e :: !times)
          done)
  done;
  Sim.Engine.run_until_idle e;
  (* First acquisition pays the two hops from station 0; the rest find
     the token at rest at station 2. *)
  Alcotest.(check (list int64)) "on-demand travel" [ 10L; 10L; 10L ]
    (List.rev !times)

let token_ring_contended_handoff () =
  let e = Sim.Engine.create () in
  let ring = Sim.Token_ring.create ~pass_ps:5L ~members:4 e in
  let log = ref [] in
  (* m1 pulls the token one hop from station 0 (granted at 5) and holds
     it for 7; m3 asks at t=1 and must wait parked (not spin) until the
     release at 12, then pay the two hops from station 1 to station 3:
     granted at 12 + 10 = 22. *)
  Sim.Engine.spawn e "m1" (fun () ->
      Sim.Token_ring.join ring 1;
      with_token ring 1 (fun () ->
          log := ("m1", Sim.Engine.time e) :: !log;
          Sim.Engine.wait_in e 7));
  Sim.Engine.spawn e "m3" (fun () ->
      Sim.Token_ring.join ring 3;
      Sim.Engine.wait_in e 1;
      with_token ring 3 (fun () ->
          log := ("m3", Sim.Engine.time e) :: !log));
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list (pair string int64)))
    "handoff times"
    [ ("m1", 5L); ("m3", 22L) ]
    (List.rev !log)

let mutex_fifo_transfer () =
  let e = Sim.Engine.create () in
  let m = Sim.Mutex.create () in
  let order = ref [] in
  for i = 0 to 2 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Sim.Engine.wait_in e i;
        Sim.Mutex.lock m;
        order := i :: !order;
        Sim.Engine.wait_in e 50;
        Sim.Mutex.unlock m)
  done;
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2 ] (List.rev !order);
  check "contended" 2 (Sim.Mutex.contended_acquires m)

let semaphore_counts () =
  let e = Sim.Engine.create () in
  let s = Sim.Semaphore.create 2 in
  let running = ref 0 in
  let peak = ref 0 in
  for i = 0 to 4 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Sim.Semaphore.acquire s;
        incr running;
        if !running > !peak then peak := !running;
        Sim.Engine.wait_in e 10;
        decr running;
        Sim.Semaphore.release s)
  done;
  Sim.Engine.run_until_idle e;
  check "at most 2 permits out" 2 !peak

let mailbox_fifo () =
  let e = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  Sim.Engine.spawn e "consumer" (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.get mb :: !got
      done);
  Sim.Engine.spawn e "producer" (fun () ->
      List.iter
        (fun v ->
          Sim.Engine.wait_in e 5;
          Sim.Mailbox.put mb v)
        [ 1; 2; 3 ]);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !got)

let spinlock_counts_attempts () =
  let e = Sim.Engine.create () in
  let l = Sim.Spinlock.create ~engine:e ~retry_ps:10L () in
  let attempts_cost = ref 0 in
  let attempt () = incr attempts_cost in
  for i = 0 to 1 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Sim.Spinlock.lock l ~attempt;
        Sim.Engine.wait_in e 35;
        Sim.Spinlock.unlock l ~attempt)
  done;
  Sim.Engine.run_until_idle e;
  check "acquisitions" 2 (Sim.Spinlock.acquisitions l);
  Alcotest.(check bool) "retries generated memory traffic" true
    (Sim.Spinlock.attempts l > 2)

let rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Sim.Rng.create seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

let rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    check64 "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let histogram_percentiles () =
  let h = Sim.Stats.Histogram.create "t" in
  for i = 1 to 1000 do
    Sim.Stats.Histogram.observe_i h i
  done;
  check "count" 1000 (Sim.Stats.Histogram.count h);
  check64 "max" 1000L (Sim.Stats.Histogram.max_value h);
  Alcotest.(check bool) "p50 bucket bound" true
    (Sim.Stats.Histogram.percentile h 0.5 >= 500L)

let counter_rate () =
  let c = Sim.Stats.Counter.create () in
  for _ = 1 to 1000 do
    Sim.Stats.Counter.incr c
  done;
  Alcotest.(check (float 1.0)) "1000 events over 1us = 1e9/s" 1e9
    (Sim.Stats.Counter.rate c ~over:1_000_000L)

(* The handle forms read the engine they are given and never touch the
   domain-local key, so a run on them counts no ambient lookup (the
   counted pair is exercised by the end-to-end benchmark's smoke test,
   its only caller).  Interleaved waits on the handle still elide or
   suspend in timestamp order, and a sibling spawned on the handle
   starts at the spawner's clock. *)
let ambient_lookups_counted () =
  let e = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.spawn e "a" (fun () ->
      Sim.Engine.wait_in e 10;
      seen := Sim.Engine.clock_i e :: !seen;
      Sim.Engine.spawn e "child" (fun () ->
          Sim.Engine.wait_in e 5;
          seen := Sim.Engine.clock_i e :: !seen));
  Sim.Engine.spawn e "b" (fun () ->
      Sim.Engine.wait_in e 12;
      seen := Sim.Engine.clock_i e :: !seen);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "clock reads" [ 15; 12; 10 ] !seen;
  Alcotest.(check int) "ambient lookups" 0 (Sim.Engine.ambient_lookups e)

let trace_ring_and_filter () =
  let tr = Sim.Trace.create ~capacity:4 () in
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e "f" (fun () ->
      for i = 1 to 6 do
        Sim.Engine.wait_in e 10;
        Sim.Trace.record tr ~at:(Sim.Engine.time e) ~who:"f"
          ~what:(Printf.sprintf "step %d" i)
      done);
  Sim.Engine.run_until_idle e;
  (* The 4 most recent, steps 3..6, survive. *)
  let evs = Sim.Trace.events tr in
  Alcotest.(check int) "ring holds capacity" 4 (List.length evs);
  Alcotest.(check string) "newest kept" "step 6"
    (List.nth evs 3).Sim.Trace.what;
  Alcotest.(check bool) "timestamps ordered" true
    (List.for_all2
       (fun a b -> a.Sim.Trace.at <= b.Sim.Trace.at)
       (List.filteri (fun i _ -> i < 3) evs)
       (List.tl evs));
  Alcotest.(check int) "filter" 1
    (List.length (Sim.Trace.find tr ~what_contains:"step 5"))

let server_utilization_bound =
  QCheck.Test.make ~name:"server utilization never exceeds 1" ~count:50
    QCheck.(pair int64 (int_range 1 20))
    (fun (seed, nfibers) ->
      let rng = Sim.Rng.create seed in
      let e = Sim.Engine.create () in
      let s = Sim.Server.create e in
      for i = 0 to nfibers - 1 do
        let occ = Int64.of_int (1 + Sim.Rng.int rng 500) in
        Sim.Engine.spawn e
          (Printf.sprintf "c%d" i)
          (fun () ->
            for _ = 1 to 5 do
              Sim.Server.access s ~occupancy:occ
                ~latency:(Int64.add occ (Int64.of_int (Sim.Rng.int rng 100)))
            done)
      done;
      Sim.Engine.run_until_idle e;
      let total = Sim.Engine.time e in
      total = 0L || Sim.Server.utilization s ~total <= 1.0 +. 1e-9)

(* The engine's run queue (timing wheel over a far heap) must pop in
   exactly the order a plain heap would — (time, seq) across both tiers
   — under any interleaving of pushes, bounded pops, and peeks.  The
   peeks matter: the wheel caches its minimum and advances a cursor, and
   historically the regressions live in peek-then-pop interleavings and
   near/far tie-breaks, so the schedule mixes same-time ties, in-horizon
   deltas, and far-tier deltas. *)
let wheel_matches_heap =
  QCheck.Test.make ~name:"wheel pops in exact heap order" ~count:150
    QCheck.(pair int64 (int_range 1 300))
    (fun (seed, nops) ->
      let rng = Sim.Rng.create seed in
      let w = Sim.Wheel.create () in
      let h = Sim.Heap.create () in
      let now = ref 0 in
      let seq = ref 0 in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      (* The wheel's pop hands back the value, here the event's seq,
         and leaves the key time in [popped_time]. *)
      let pop_wheel () =
        let s = Sim.Wheel.pop w in
        (Sim.Wheel.popped_time w, s)
      in
      let pop_pair () =
        match (Sim.Wheel.is_empty w, Sim.Heap.pop h) with
        | true, None -> false
        | false, Some (t', s', _) ->
            let t, s = pop_wheel () in
            expect (Int64.of_int t = t' && s = s');
            now := t;
            true
        | _ -> expect false; false
      in
      let push_batch () =
        for _ = 1 to 1 + Sim.Rng.int rng 5 do
          let delta =
            match Sim.Rng.int rng 4 with
            | 0 -> Sim.Rng.int rng 3 (* exact ties and near-ties *)
            | 1 -> Sim.Rng.int rng 10_000 (* in-horizon *)
            | 2 -> Sim.Rng.int rng 30_000 (* straddles the horizon *)
            | _ -> Sim.Rng.int rng 100_000_000 (* far tier *)
          in
          let t = !now + delta in
          Sim.Wheel.push w ~now:!now ~time:t ~seq:!seq !seq;
          Sim.Heap.push h ~time:(Int64.of_int t) ~seq:!seq !seq;
          incr seq
        done
      in
      for _ = 1 to nops do
        match Sim.Rng.int rng 4 with
        | 0 | 1 -> push_batch ()
        | 2 -> (
            (* Bounded pop, exactly the engine's inner loop. *)
            let until = !now + Sim.Rng.int rng 20_000 in
            if
              (not (Sim.Wheel.is_empty w)) && Sim.Wheel.min_time w <= until
            then begin
              let t, s = pop_wheel () in
              expect (t <= until);
              match Sim.Heap.pop h with
              | Some (t', s', _) ->
                  expect (Int64.of_int t = t' && s = s');
                  now := t
              | None -> expect false
            end
            else
              match Sim.Heap.peek_time h with
              | Some t' -> expect (t' > Int64.of_int until)
              | None -> ())
        | _ ->
            (* Peeks must agree and must not disturb later pops. *)
            expect
              (match (Sim.Wheel.peek_time w, Sim.Heap.peek_time h) with
              | Some t, Some t' -> Int64.of_int t = t'
              | None, None -> true
              | _ -> false);
            expect
              (Sim.Wheel.min_time w = max_int
              || Some (Int64.of_int (Sim.Wheel.min_time w))
                 = Sim.Heap.peek_time h)
      done;
      while pop_pair () do
        ()
      done;
      expect (Sim.Wheel.is_empty w && Sim.Heap.is_empty h);
      !ok)

(* The qcheck draws above rarely leave a wheel-tier event behind a
   pending far-tier one, so pin that case: F goes to the far heap (it
   lies beyond the ~8.4 us horizon when pushed at 0), the clock then
   moves to 8 us, and B, pushed after F's time but inside the new
   horizon, lands in the wheel.  F must pop first, and a same-time
   wheel entry pushed later must wait behind it. *)
let wheel_far_tier_order () =
  let w = Sim.Wheel.create () in
  Sim.Wheel.push w ~now:0 ~time:8_000_000 ~seq:0 "a";
  Sim.Wheel.push w ~now:0 ~time:9_000_000 ~seq:1 "f";
  Alcotest.(check string) "near first" "a" (Sim.Wheel.pop w);
  let now = Sim.Wheel.popped_time w in
  Sim.Wheel.push w ~now ~time:10_000_000 ~seq:2 "b";
  Sim.Wheel.push w ~now ~time:9_000_000 ~seq:3 "tie";
  Alcotest.(check int) "min is the far event" 9_000_000 (Sim.Wheel.min_time w);
  let pops = List.init 3 (fun _ -> Sim.Wheel.pop w) in
  Alcotest.(check (list string)) "key order" [ "f"; "tie"; "b" ] pops;
  Alcotest.(check int) "last key time" 10_000_000 (Sim.Wheel.popped_time w);
  Alcotest.check_raises "empty" (Invalid_argument "Wheel.pop: empty queue")
    (fun () -> ignore (Sim.Wheel.pop w : string))

(* Grant order on release against the reference scan: the token goes
   to the first waiting slot among [(idx + k) mod n], k = 1..n-1.
   [ops] is one operation per 1000 ps step: [i < n] is member i asking
   for the token (skipped while it holds or waits), [n] is the holder
   releasing it (skipped while nobody holds).  The reference model
   replays the schedule and yields each member's request times, the
   release times and the expected grants with the rotation count each
   grantee's [acquire] returns; member fibers then replay the same
   schedule on a real ring, releasing at the first release step after
   their grant.  Enough releases follow the random ops to drain every
   waiter. *)
let ring_step = 1_000

let ring_reference n ops =
  let holder = ref (-1) and waiting = Array.make n false in
  let releases = ref 0 in
  let reqs = Array.make n [] and rels = ref [] and grants = ref [] in
  let grant s =
    holder := s;
    grants := (s, !releases / n) :: !grants
  in
  let rec scan idx k =
    if k >= n then -1
    else
      let s = (idx + k) mod n in
      if waiting.(s) then s else scan idx (k + 1)
  in
  List.iteri
    (fun i op ->
      let at = (i + 1) * ring_step in
      if op < n then begin
        if op <> !holder && not waiting.(op) then begin
          reqs.(op) <- at :: reqs.(op);
          if !holder < 0 then grant op else waiting.(op) <- true
        end
      end
      else if !holder >= 0 then begin
        rels := at :: !rels;
        incr releases;
        match scan !holder 1 with
        | -1 -> holder := -1
        | s ->
            waiting.(s) <- false;
            grant s
      end)
    (ops @ List.init (n + 1) (fun _ -> n));
  (Array.map List.rev reqs, List.rev !rels, List.rev !grants, !releases / n)

let ring_grants_match_reference =
  QCheck.Test.make ~name:"token ring grants = reference (idx + k) mod n scan"
    ~count:300
    QCheck.(
      pair (int_range 1 16) (list_of_size (Gen.int_bound 80) (int_bound 16)))
    (fun (n, ops) ->
      let ops = List.map (fun op -> op mod (n + 1)) ops in
      let reqs, rels, expect, rotations = ring_reference n ops in
      let e = Sim.Engine.create () in
      let ring = Sim.Token_ring.create ~pass_ps:3L ~members:n e in
      let got = ref [] in
      let wait_until at =
        let now = Sim.Engine.clock_i e in
        if at > now then Sim.Engine.wait_in e (at - now)
      in
      for i = 0 to n - 1 do
        Sim.Engine.spawn e (Printf.sprintf "m%d" i) (fun () ->
            Sim.Token_ring.join ring i;
            List.iter
              (fun at ->
                wait_until at;
                let rot = Sim.Token_ring.acquire ring i in
                got := (i, rot) :: !got;
                let now = Sim.Engine.clock_i e in
                match List.find_opt (fun r -> r > now) rels with
                | Some r ->
                    wait_until r;
                    Sim.Token_ring.release ring i
                | None -> ())
              reqs.(i))
      done;
      Sim.Engine.run_until_idle e;
      List.rev !got = expect && Sim.Token_ring.rotations ring = rotations)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      heap_qcheck; wheel_matches_heap; rng_bounds; server_utilization_bound;
      ring_grants_match_reference;
    ]

let tests =
  [
    Alcotest.test_case "heap: time then seq order" `Quick
      heap_orders_by_time_then_seq;
    Alcotest.test_case "engine: wait advances clock" `Quick wait_advances_clock;
    Alcotest.test_case "engine: run ~until bounds time" `Quick
      run_until_bounds_time;
    Alcotest.test_case "engine: deterministic interleaving" `Quick
      interleaving_is_deterministic;
    Alcotest.test_case "engine: suspend/wake" `Quick suspend_and_wake;
    Alcotest.test_case "engine: deadlock detection" `Quick deadlock_detected;
    Alcotest.test_case "engine: wait on another engine raises" `Quick
      cross_engine_wait_rejected;
    Alcotest.test_case "engine: park on another engine's cell raises" `Quick
      cross_engine_park_rejected;
    Alcotest.test_case "engine: nested run rejects outer wait" `Quick
      nested_wait_rejected;
    Alcotest.test_case "engine: nested run rejects outer park" `Quick
      nested_park_rejected;
    Alcotest.test_case "server: FIFO serialization" `Quick server_serializes;
    Alcotest.test_case "server: pipelined latency" `Quick
      server_latency_exceeds_occupancy;
    Alcotest.test_case "token ring: strict rotation" `Quick
      token_ring_strict_rotation;
    Alcotest.test_case "token ring: mutual exclusion" `Quick
      token_ring_mutual_exclusion;
    Alcotest.test_case "token ring: pass delay" `Quick token_ring_pass_delay;
    Alcotest.test_case "token ring: on-demand travel" `Quick
      token_ring_on_demand;
    Alcotest.test_case "token ring: contended handoff" `Quick
      token_ring_contended_handoff;
    Alcotest.test_case "mutex: FIFO transfer" `Quick mutex_fifo_transfer;
    Alcotest.test_case "semaphore: permit counting" `Quick semaphore_counts;
    Alcotest.test_case "mailbox: FIFO delivery" `Quick mailbox_fifo;
    Alcotest.test_case "spinlock: attempts traffic" `Quick
      spinlock_counts_attempts;
    Alcotest.test_case "rng: determinism" `Quick rng_deterministic;
    Alcotest.test_case "histogram: percentiles" `Quick histogram_percentiles;
    Alcotest.test_case "counter: rate" `Quick counter_rate;
    Alcotest.test_case "trace: ring + filter" `Quick trace_ring_and_filter;
    Alcotest.test_case "engine: ambient lookups counted" `Quick
      ambient_lookups_counted;
    Alcotest.test_case "wheel: far tier merges in key order" `Quick
      wheel_far_tier_order;
  ]
  @ qsuite
