(* Tests for the telemetry registry and its JSON layer: scope naming and
   labels, snapshot determinism under the simulated clock, serializer /
   parser round-trips, and the disabled-registry fast path. *)

module J = Telemetry.Json
module Registry = Telemetry.Registry
module Scope = Telemetry.Scope

let check_str = Alcotest.(check string)

let json = Alcotest.testable J.pp J.equal

(* --- registry scoping ------------------------------------------------ *)

let scope_paths_and_labels () =
  let reg = Registry.create () in
  let me = Registry.scope reg "me" ~labels:[ ("id", "3") ] in
  let q = Scope.sub me "queue" ~labels:[ ("name", "outq0") ] in
  check_str "dotted path" "me.queue" (Scope.name q);
  Alcotest.(check (list (pair string string)))
    "labels accumulate"
    [ ("id", "3"); ("name", "outq0") ]
    (Scope.labels q)

let counters_idempotent_per_name () =
  let reg = Registry.create () in
  let s = Registry.scope reg "input" in
  let c = Scope.counter s "drops" in
  Sim.Stats.Counter.incr c;
  (* Second lookup must return the same counter, not shadow it. *)
  Sim.Stats.Counter.incr (Scope.counter s "drops");
  match J.member "scopes" (Registry.snapshot reg) with
  | Some (J.List [ scope ]) ->
      let metrics = Option.get (J.member "metrics" scope) in
      Alcotest.check json "one counter, both increments" (J.Int 2)
        (Option.get (J.member "drops" metrics))
  | _ -> Alcotest.fail "expected exactly one scope in snapshot"

let snapshot_includes_gauges_and_subscopes () =
  let reg = Registry.create () in
  let depth = ref 7 in
  let s = Registry.scope reg "sched" in
  Scope.gauge_int s "backlog" (fun () -> !depth);
  Scope.gauge s "share" (fun () -> 0.25);
  Scope.dynamic (Scope.sub s "clients") "table" (fun () ->
      J.List [ J.String "a"; J.String "b" ]);
  depth := 9;
  let snap = Registry.snapshot reg in
  let scopes =
    match J.member "scopes" snap with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "no scopes"
  in
  let names =
    List.map (fun sc -> Option.get (J.member "name" sc)) scopes
  in
  Alcotest.(check (list string))
    "scopes sorted by name"
    [ "sched"; "sched.clients" ]
    (List.map (function J.String s -> s | _ -> "?") names);
  let metrics sc = Option.get (J.member "metrics" sc) in
  Alcotest.check json "gauge read at snapshot time, not registration"
    (J.Int 9)
    (Option.get (J.member "backlog" (metrics (List.nth scopes 0))));
  Alcotest.check json "float gauge" (J.Float 0.25)
    (Option.get (J.member "share" (metrics (List.nth scopes 0))));
  Alcotest.check json "dynamic json"
    (J.List [ J.String "a"; J.String "b" ])
    (Option.get (J.member "table" (metrics (List.nth scopes 1))))

(* --- determinism under the sim clock --------------------------------- *)

(* Two identical simulated runs must serialize to identical bytes: the
   clock is the engine's, scopes and metrics are sorted, and nothing
   depends on wall time or hash order. *)
let run_once () =
  let engine = Sim.Engine.create () in
  let reg = Registry.create () in
  Registry.set_clock reg (fun () -> Sim.Engine.time engine);
  let input = Registry.scope reg "input" in
  let q = Registry.scope reg "queue" ~labels:[ ("name", "q0") ] in
  let pkts = Scope.counter input "pkts" in
  Scope.gauge_int q "depth" (fun () -> 2);
  Sim.Engine.spawn engine "drops" (fun () ->
      for _ = 1 to 3 do
        Sim.Engine.wait_in engine 100;
        Sim.Stats.Counter.incr pkts;
        Scope.event input "drop: queue full"
      done);
  Sim.Engine.run_until_idle engine;
  Registry.snapshot_string reg

let snapshot_deterministic () =
  check_str "identical runs, identical bytes" (run_once ()) (run_once ())

let events_carry_sim_timestamps () =
  let engine = Sim.Engine.create () in
  let reg = Registry.create () in
  Registry.set_clock reg (fun () -> Sim.Engine.time engine);
  let s = Registry.scope reg "vrp" in
  Sim.Engine.spawn engine "f" (fun () ->
      Sim.Engine.wait_in engine 42;
      Scope.event s "budget overrun";
      Sim.Engine.wait_in engine 8;
      Scope.event s "budget overrun");
  Sim.Engine.run_until_idle engine;
  Alcotest.(check (list int64))
    "event times are sim times" [ 42L; 50L ]
    (List.map (fun (e : Sim.Trace.event) -> e.at) (Scope.events s))

(* --- JSON round-trip -------------------------------------------------- *)

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> Alcotest.check json (J.to_string v) v v'
  | Error e -> Alcotest.failf "parse error on %s: %s" (J.to_string v) e

let json_roundtrip_shapes () =
  roundtrip J.Null;
  roundtrip (J.Bool true);
  roundtrip (J.Int 0);
  roundtrip (J.Int (-123456789));
  roundtrip (J.Float 3.47);
  roundtrip (J.Float 1e-9);
  roundtrip (J.Float (-0.5));
  roundtrip (J.String "");
  roundtrip (J.String "quotes \" and \\ and \ncontrol \t bytes");
  roundtrip (J.String "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\xab");
  roundtrip (J.List []);
  roundtrip (J.Obj []);
  roundtrip
    (J.Obj
       [
         ("rows", J.List [ J.Obj [ ("paper", J.Float 3.75); ("n", J.Int 1) ] ]);
         ("notes", J.List [ J.String "a"; J.Null; J.Bool false ]);
       ])

(* Int stays Int and Float stays Float through the wire format: floats
   always print a '.' or exponent, ints never do. *)
let json_int_float_distinct () =
  (match J.of_string (J.to_string (J.Float 3.)) with
  | Ok (J.Float 3.) -> ()
  | Ok v -> Alcotest.failf "3.0 reparsed as %s" (J.to_string v)
  | Error e -> Alcotest.fail e);
  match J.of_string (J.to_string (J.Int 3)) with
  | Ok (J.Int 3) -> ()
  | Ok v -> Alcotest.failf "3 reparsed as %s" (J.to_string v)
  | Error e -> Alcotest.fail e

let json_nonfinite_to_null () =
  check_str "nan" "null" (J.to_string (J.Float Float.nan));
  check_str "inf" "null" (J.to_string (J.Float Float.infinity))

let json_parses_escapes_and_rejects_garbage () =
  (match J.of_string {|  {"kéy": [1, 2.5, "🐫"]}  |} with
  | Ok (J.Obj [ (k, J.List [ J.Int 1; J.Float 2.5; J.String emoji ]) ]) ->
      check_str "escaped key" "k\xc3\xa9y" k;
      check_str "surrogate pair" "\xf0\x9f\x90\xab" emoji
  | Ok v -> Alcotest.failf "unexpected parse %s" (J.to_string v)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok v -> Alcotest.failf "%S parsed as %s" s (J.to_string v)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let qcheck_json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized
      @@ fix (fun self n ->
             let leaf =
               oneof
                 [
                   return J.Null;
                   map (fun b -> J.Bool b) bool;
                   map (fun i -> J.Int i) int;
                   map (fun f -> J.Float f) (float_bound_inclusive 1e6);
                   map (fun s -> J.String s) string_printable;
                 ]
             in
             if n = 0 then leaf
             else
               oneof
                 [
                   leaf;
                   map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                   map
                     (fun kvs -> J.Obj kvs)
                     (list_size (int_bound 4)
                        (pair string_printable (self (n / 2))));
                 ]))
  in
  QCheck.Test.make ~name:"json round-trips exactly" ~count:300
    (QCheck.make ~print:(fun v -> J.to_string v) gen)
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> J.equal v v'
      | Error _ -> false)

let tests =
  [
    Alcotest.test_case "scope paths and labels" `Quick scope_paths_and_labels;
    Alcotest.test_case "counter idempotent per name" `Quick
      counters_idempotent_per_name;
    Alcotest.test_case "snapshot gauges and subscopes" `Quick
      snapshot_includes_gauges_and_subscopes;
    Alcotest.test_case "snapshot deterministic under sim clock" `Quick
      snapshot_deterministic;
    Alcotest.test_case "events carry sim timestamps" `Quick
      events_carry_sim_timestamps;
    Alcotest.test_case "json round-trip shapes" `Quick json_roundtrip_shapes;
    Alcotest.test_case "json int/float distinct" `Quick json_int_float_distinct;
    Alcotest.test_case "json non-finite to null" `Quick json_nonfinite_to_null;
    Alcotest.test_case "json escapes and errors" `Quick
      json_parses_escapes_and_rejects_garbage;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
  ]
