(* Steady-state allocation discipline.

   The zero-allocation work (pooled frames, park cells, boxless wait
   path, limb RNG) is easy to regress invisibly: a stray closure or
   int64 box per packet costs nothing in correctness and everything in
   throughput.  These tests pin the discipline down functionally:

   - a GC audit of the full line-rate router: after warm-up, a measured
     window must stay within the words-per-packet budget and promote
     nothing to the major heap (steady state lives and dies entirely in
     the minor arena); a second run adds the delivery digest and
     connected sinks under their own budget;
   - a per-call audit of the classified forwarder chain: with the
     multi-field classifier installed, [Router.default_process] stays
     within a few words per packet and promotes nothing;
   - on each of those routers, and on a cluster whose queued fabric
     carries cross-member frames, every fiber reads the engine it
     holds: no run finds its engine through the domain-local key;
   - a qcheck property that frame-pool recycling never aliases two live
     descriptors (the pool closing the allocation loop must not hand
     the same frame out twice);
   - the limb-based splitmix64 against a straight int64 reference, bit
     for bit, across draws, splits and the derived samplers. *)

let seed = 42

(* Matches the bench/alloc.ml ceiling: the local budget the CI baseline
   ratio-gate sits on top of. *)
let words_per_packet_budget = 90.

(* The same router with the delivery digest armed and every port's sink
   connected: each delivered frame adds the MAC's copy for the external
   sink and the digest's 16-byte result, and nothing else. *)
let digest_words_per_packet_budget = 100.

(* Every fiber holds its engine, so a run finds none through the
   domain-local key (the ambient pair kept only for the end-to-end
   benchmark harness). *)
let check_no_ambient_lookups ~what engines =
  let n =
    Array.fold_left (fun n e -> n + Sim.Engine.ambient_lookups e) 0 engines
  in
  if n > 0 then
    Alcotest.failf "%s found its engine through the domain-local key %d times"
      what n

(* --- steady-state GC audit -------------------------------------------- *)

let line_rate_router () =
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
  let rng = Sim.Rng.create (Int64.of_int seed) in
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
  r

(* Runs [r] through a warm-up and a measured window; returns the
   packets forwarded and the GC counters over the measured window. *)
let measure_window r =
  (* A minor arena big enough that the measured window cannot fill it:
     any promotion observed is then a real steady-state leak to the
     major heap, not collection pressure. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Router.run_for r ~us:2_000.;
  let pkts_out () =
    Sim.Stats.Counter.value r.Router.ostats.Router.Output_loop.pkts_out
  in
  let out0 = pkts_out () in
  let gc = Sim.Gc_stats.create () in
  Router.run_for r ~us:10_000.;
  let out = pkts_out () - out0 in
  Alcotest.(check bool) "forwarded enough packets to measure" true (out > 1_000);
  (out, gc)

let check_gc_budget ~what ~budget out gc =
  let w = Sim.Gc_stats.minor_words gc /. float_of_int out in
  if w > budget then
    Alcotest.failf "%s allocates %.1f minor words/packet (budget %.0f)" what w
      budget;
  let promoted = Sim.Gc_stats.promoted_words gc in
  if promoted > 0. then
    Alcotest.failf "%s promoted %.0f words to the major heap" what promoted;
  Alcotest.(check int)
    "no minor collections in the measured window" 0
    (Sim.Gc_stats.minor_collections gc)

let test_steady_state_gc () =
  let r = line_rate_router () in
  let out, gc = measure_window r in
  check_gc_budget ~what:"steady state" ~budget:words_per_packet_budget out gc;
  check_no_ambient_lookups ~what:"the line-rate router" [| r.Router.engine |]

let test_digest_gc () =
  let r = line_rate_router () in
  Router.enable_delivery_digest r;
  let delivered = ref 0 in
  for p = 0 to r.Router.config.Router.n_ports - 1 do
    Router.connect r ~port:p (fun _ -> incr delivered)
  done;
  let out, gc = measure_window r in
  Alcotest.(check bool) "the connected sinks saw the traffic" true
    (!delivered >= out);
  check_gc_budget ~what:"with the delivery digest"
    ~budget:digest_words_per_packet_budget out gc

(* --- classifier miss path ---------------------------------------------- *)

(* A flow-cache miss walks the pruned tuple list, and every probe masks
   the packed key and reads preallocated slots, so a miss allocates
   nothing per probe.  The cache-entry insert writes the cache's arrays
   in place; it allocates only when the cache grows, which the warm-up
   pass finishes.  The per-lookup bound below is what measurement leaves
   room for: a single boxed option or key record per miss would already
   cost 2 words, a per-probe one ~80 times that. *)
let classifier_words_per_lookup_budget = 0.05

let classifier_keys rng n =
  let seen = Hashtbl.create n in
  let rec draw acc k =
    if k = 0 then Array.of_list acc
    else
      let a () =
        Int32.of_int
          ((10 lsl 24)
          lor (Sim.Rng.int rng 16 lsl 16)
          lor (1 + Sim.Rng.int rng 256))
      in
      let key =
        {
          Packet.Flow.f_src = a ();
          f_src_port = 1024 + Sim.Rng.int rng 4096;
          f_dst = a ();
          f_dst_port = (if Sim.Rng.bool rng then 80 else 443);
          f_proto = (if Sim.Rng.bool rng then 6 else 17);
          f_dscp = Sim.Rng.int rng 8 lsl 3;
        }
      in
      if Hashtbl.mem seen key then draw acc k
      else begin
        Hashtbl.add seen key ();
        draw (key :: acc) (k - 1)
      end
  in
  draw [] n

let test_classifier_miss_alloc () =
  let module C = Forwarders.Classifier in
  let rng = Sim.Rng.create 2027L in
  let t = C.create ~cache_capacity:4096 () in
  List.iter (C.add t) (C.Gen.rules ~rng ~n:10_000 ());
  (* Three cache capacities of distinct keys, cycled: every entry is
     flushed before its key recurs, so every lookup misses. *)
  let keys = classifier_keys rng (3 * 4096) in
  let n = Array.length keys in
  Array.iter (fun k -> ignore (C.lookup t k : C.rule option)) keys;
  let misses0 = C.cache_misses t and probes0 = C.probes t in
  let gc = Sim.Gc_stats.create () in
  for i = 0 to n - 1 do
    ignore (C.lookup t keys.(i) : C.rule option)
  done;
  let words = Sim.Gc_stats.minor_words gc in
  let misses = C.cache_misses t - misses0 in
  let probes = C.probes t - probes0 in
  Alcotest.(check int) "every measured lookup missed the cache" n misses;
  let probes_per_miss = float_of_int probes /. float_of_int misses in
  if probes_per_miss < 10. then
    Alcotest.failf "only %.1f probes per miss: the walk is not exercised"
      probes_per_miss;
  let w = words /. float_of_int n in
  if w > classifier_words_per_lookup_budget then
    Alcotest.failf
      "classifier misses allocate %.3f words/lookup over %.1f probes each \
       (budget %.2f)"
      w probes_per_miss classifier_words_per_lookup_budget

(* --- classified forwarder chain ------------------------------------------ *)

(* With the multi-field classifier installed as a general forwarder every
   packet runs the installed-forwarder chain: the VRP charges, the key
   read straight from the frame, the lookup and a preallocated verdict.
   None of it needs a fresh value, so what is left per call is the rare
   flow-cache growth.  A single closure, boxed key or verdict record per
   packet would already cost more than this budget allows. *)
let classified_words_per_call_budget = 16.

let test_classified_chain_alloc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let module C = Forwarders.Classifier in
  let config = Router.default_config in
  let n_ports = config.Router.n_ports in
  let r = Router.create ~config () in
  let pool =
    Packet.Frame_pool.create ~max_frames:16_384 ~frame_bytes:1536 ()
  in
  Router.set_frame_pool r pool;
  for p = 0 to n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done;
  let cls = C.create () in
  List.iter (C.add cls)
    (C.Gen.rules ~rng:(Sim.Rng.create 99L) ~n:2_000 ~n_ports ());
  (match
     Router.Iface.install r.Router.iface ~key:Packet.Flow.All
       ~fwdr:(C.forwarder ~cm:config.Router.cm cls)
       ~where:Router.Iface.ME ()
   with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "install: %s" (String.concat "; " es));
  (* Words are counted per call, and only over calls that did not
     suspend: a suspension runs other fibers inside the window. *)
  let measuring = ref false and calls = ref 0 and words = ref 0 in
  let minor_words () = int_of_float (Gc.minor_words ()) in
  Router.start r ~process:(fun r ->
      let process = Router.default_process r in
      fun ctx f ~in_port ->
        if not !measuring then process ctx f ~in_port
        else begin
          let s0 = Sim.Engine.clock_i r.Router.engine in
          let w0 = minor_words () in
          let v = process ctx f ~in_port in
          let w1 = minor_words () in
          if Sim.Engine.clock_i r.Router.engine = s0 then begin
            incr calls;
            words := !words + (w1 - w0)
          end;
          v
        end);
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for p = 0 to n_ports - 1 do
    let fl =
      Workload.Flows.create ~pool ~rng:(Sim.Rng.split rng)
        { Workload.Flows.default with pps = 60_000.; n_hosts = 4096 }
    in
    ignore
      (Workload.Flows.spawn fl r.Router.engine
         ~name:(Printf.sprintf "gen%d" p)
         ~offer:(fun f ->
           let ok = Router.inject r ~port:p f in
           if not ok then Packet.Frame_pool.give pool f;
           ok))
  done;
  Router.run_for r ~us:2_000.;
  measuring := true;
  let gc = Sim.Gc_stats.create () in
  Router.run_for r ~us:10_000.;
  if !calls < 1_000 then
    Alcotest.failf "only %d unsuspended process calls measured" !calls;
  Alcotest.(check bool) "the classifier ran" true (C.cache_hits cls > 0);
  let w = float_of_int !words /. float_of_int !calls in
  if w > classified_words_per_call_budget then
    Alcotest.failf
      "the classified chain allocates %.1f minor words/call over %d calls \
       (budget %.0f)"
      w !calls classified_words_per_call_budget;
  let promoted = Sim.Gc_stats.promoted_words gc in
  if promoted > 0. then
    Alcotest.failf "the classified run promoted %.0f words to the major heap"
      promoted;
  check_no_ambient_lookups ~what:"the classified router" [| r.Router.engine |]

(* --- queued cluster fabric --------------------------------------------- *)

(* Member 1's ports send to member 0's subnets, so every frame crosses
   the fabric through member 1's uplink queue and member 0's ingress
   queue, each served by a fiber on its own member's engine. *)
let test_queued_fabric_engines () =
  let fabric_queue =
    match Cluster.Fabric_queue.parse "taildrop:64" with
    | Ok q -> q
    | Error m -> Alcotest.fail m
  in
  let c = Cluster.create ~members:2 ~ports_per_member:4 ~fabric_queue () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for g = 4 to 7 do
    let rng = Sim.Rng.split rng in
    ignore
      (Workload.Source.spawn_constant (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "cross%d" g)
         ~pps:50_000.
         ~gen:(fun _ ->
           Packet.Build.udp
             ~src:(Workload.Mix.subnet_addr ~subnet:(200 + g) ~host:1)
             ~dst:
               (Workload.Mix.subnet_addr ~subnet:(Sim.Rng.int rng 4) ~host:2)
             ~src_port:1000 ~dst_port:2000 ())
         ~offer:(fun f -> Cluster.inject c ~global_port:g f)
         ())
  done;
  Cluster.run_for c ~us:1_000.;
  let served = Cluster.Fabric_queue.serviced c.Cluster.in_queues.(0) in
  if served < 100 then
    Alcotest.failf "only %d frames crossed the queued fabric" served;
  check_no_ambient_lookups ~what:"the queued cluster" c.Cluster.engines

(* --- pool recycling never aliases live frames -------------------------- *)

(* Interpret a random op sequence against a small pool, tracking the live
   (checked-out) set.  Every take must return a descriptor physically
   distinct from every frame still live — a pool bug that resurrects an
   outstanding slot would alias two owners and corrupt both. *)
let pool_no_aliasing =
  QCheck.Test.make ~name:"frame pool never aliases two live descriptors"
    ~count:200
    QCheck.(list (pair bool (int_range 1 64)))
    (fun ops ->
      let pool =
        Packet.Frame_pool.create ~max_frames:8 ~frame_bytes:64 ~debug:true ()
      in
      let live = ref [] in
      List.iter
        (fun (take, len) ->
          if take then begin
            let f = Packet.Frame_pool.take pool ~len in
            if List.exists (fun g -> g == f) !live then
              QCheck.Test.fail_reportf
                "take returned a frame already live (%d outstanding)"
                (List.length !live);
            live := f :: !live
          end
          else
            match !live with
            | [] -> ()
            | f :: rest ->
                Packet.Frame_pool.give pool f;
                live := rest)
        ops;
      (match Packet.Frame_pool.check pool with
      | Some msg -> QCheck.Test.fail_reportf "pool conservation: %s" msg
      | None -> ());
      true)

(* --- limb RNG versus the int64 reference ------------------------------- *)

(* Straight int64 splitmix64 (Steele et al.), the form the limb rewrite
   must reproduce bit for bit. *)
module Ref64 = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }
  let golden = 0x9E3779B97F4A7C15L
  let m1 = 0xBF58476D1CE4E5B9L
  let m2 = 0x94D049BB133111EBL

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) m1 in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) m2 in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next r =
    r.state <- Int64.add r.state golden;
    mix r.state

  let split r = create (next r)

  (* The derived samplers, replicated exactly as rng.ml defines them on
     the limbs, but from the int64 draw. *)
  let int r bound =
    let d = next r in
    Int64.to_int (Int64.logand d 0x3FFFFFFFFFFFFFFFL) mod bound

  let float r x =
    let d = next r in
    let v = Int64.to_float (Int64.shift_right_logical d 11) in
    x *. (v /. 9007199254740992.0)

  let bool r = Int64.logand (next r) 1L = 1L
end

let test_rng_matches_reference () =
  let seeds = [ 0L; 1L; -1L; 42L; 0xDEADBEEFL; Int64.min_int; Int64.max_int ] in
  List.iter
    (fun seed ->
      let a = Sim.Rng.create seed and b = Ref64.create seed in
      for i = 1 to 1_000 do
        let x = Sim.Rng.next a and y = Ref64.next b in
        if x <> y then
          Alcotest.failf "seed %Ld draw %d: limb %Lx <> reference %Lx" seed i x
            y
      done)
    seeds;
  (* Splits derive the same streams. *)
  let a = Sim.Rng.create 7L and b = Ref64.create 7L in
  let a' = Sim.Rng.split a and b' = Ref64.split b in
  for _ = 1 to 100 do
    Alcotest.(check int64) "split stream" (Ref64.next b') (Sim.Rng.next a');
    Alcotest.(check int64) "parent after split" (Ref64.next b) (Sim.Rng.next a)
  done;
  (* Derived samplers: same values through the limb fast paths. *)
  let a = Sim.Rng.create 99L and b = Ref64.create 99L in
  for i = 1 to 1_000 do
    let bound = 1 + (i * 37 mod 10_000) in
    Alcotest.(check int) "int sampler" (Ref64.int b bound) (Sim.Rng.int a bound)
  done;
  let a = Sim.Rng.create 13L and b = Ref64.create 13L in
  for _ = 1 to 1_000 do
    Alcotest.(check (float 0.)) "float sampler" (Ref64.float b 1.0)
      (Sim.Rng.float a 1.0)
  done;
  let a = Sim.Rng.create 5L and b = Ref64.create 5L in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "bool sampler" (Ref64.bool b) (Sim.Rng.bool a)
  done

let tests =
  [
    Alcotest.test_case "steady-state GC audit" `Slow test_steady_state_gc;
    Alcotest.test_case "GC audit with the delivery digest" `Slow
      test_digest_gc;
    Alcotest.test_case "classifier miss path allocates nothing per probe"
      `Quick test_classifier_miss_alloc;
    Alcotest.test_case "classified forwarder chain allocation" `Slow
      test_classified_chain_alloc;
    Alcotest.test_case "queued cluster fabric reads its engines" `Quick
      test_queued_fabric_engines;
    QCheck_alcotest.to_alcotest pool_no_aliasing;
    Alcotest.test_case "limb RNG = int64 reference" `Quick
      test_rng_matches_reference;
  ]
