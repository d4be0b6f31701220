type metric =
  | Counter of Sim.Stats.Counter.t
  | Histogram of Sim.Stats.Histogram.t
  | Gauge of (unit -> float)
  | Gauge_int of (unit -> int)
  | Dynamic of (unit -> Json.t)

type scope = {
  reg : registry;
  path : string;
  labels : (string * string) list;
  mutable metrics : (string * metric) list; (* reversed insertion order *)
  mutable ring : Sim.Trace.t option; (* created on first event *)
}

and registry = {
  mutable scopes : scope list; (* reversed creation order *)
  mutable clock : unit -> int64;
}

(* Entries in each scope's event ring. *)
let event_capacity = 256

type t = registry

module Scope = struct
  type t = scope

  let name s = s.path
  let labels s = s.labels

  let sub ?(labels = []) parent name =
    let path = if parent.path = "" then name else parent.path ^ "." ^ name in
    let s =
      {
        reg = parent.reg;
        path;
        labels = parent.labels @ labels;
        metrics = [];
        ring = None;
      }
    in
    parent.reg.scopes <- s :: parent.reg.scopes;
    s

  let register s name m = s.metrics <- (name, m) :: s.metrics

  let counter s name =
    let rec find = function
      | [] ->
          let c = Sim.Stats.Counter.create () in
          register s name (Counter c);
          c
      | (n, Counter c) :: _ when n = name -> c
      | _ :: rest -> find rest
    in
    find s.metrics

  let register_counter s ~name c = register s name (Counter c)

  let register_histogram s ~name h = register s name (Histogram h)
  let gauge s name f = register s name (Gauge f)
  let gauge_int s name f = register s name (Gauge_int f)
  let dynamic s name f = register s name (Dynamic f)

  let event_at s ~at what =
    let ring =
      match s.ring with
      | Some r -> r
      | None ->
          let r = Sim.Trace.create ~capacity:event_capacity () in
          s.ring <- Some r;
          r
    in
    Sim.Trace.record ring ~at ~what

  let event s what = event_at s ~at:(s.reg.clock ()) what

  let events s =
    match s.ring with None -> [] | Some r -> Sim.Trace.events r
end

let create () =
  let rec reg = { scopes = [ root ]; clock = (fun () -> 0L) }
  and root = { reg; path = ""; labels = []; metrics = []; ring = None } in
  reg

let set_clock t f = t.clock <- f

let root t =
  (* The root scope is created last into the reversed list, so it is the
     final element; keep a stable lookup instead of trusting position. *)
  let rec last = function
    | [] -> assert false
    | [ s ] -> s
    | _ :: rest -> last rest
  in
  last t.scopes

let scope ?labels t name = Scope.sub ?labels (root t) name

(* --- snapshot --------------------------------------------------------- *)

let metric_json = function
  | Counter c -> Json.Int (Sim.Stats.Counter.value c)
  | Gauge f -> Json.Float (f ())
  | Gauge_int f -> Json.Int (f ())
  | Dynamic f -> f ()
  | Histogram h ->
      Json.Obj
        [
          ("count", Json.Int (Sim.Stats.Histogram.count h));
          ("mean", Json.Float (Sim.Stats.Histogram.mean h));
          ( "p50",
            Json.Int (Int64.to_int (Sim.Stats.Histogram.percentile h 0.5)) );
          ( "p99",
            Json.Int (Int64.to_int (Sim.Stats.Histogram.percentile h 0.99)) );
          ( "max",
            Json.Int (Int64.to_int (Sim.Stats.Histogram.max_value h)) );
        ]

let scope_json s =
  (* First registration wins on duplicate names; sort for determinism. *)
  let metrics =
    List.sort_uniq
      (fun (a, _) (b, _) -> compare a b)
      (List.rev s.metrics)
  in
  let fields =
    [
      ("name", Json.String s.path);
      ( "labels",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels) );
      ( "metrics",
        Json.Obj (List.map (fun (n, m) -> (n, metric_json m)) metrics) );
    ]
  in
  let fields =
    match s.ring with
    | None -> fields
    | Some r ->
        let ev (e : Sim.Trace.event) =
          Json.Obj
            [
              ("at_ps", Json.Int (Int64.to_int e.Sim.Trace.at));
              ("what", Json.String e.Sim.Trace.what);
            ]
        in
        fields
        @ [ ("events", Json.List (List.map ev (Sim.Trace.events r))) ]
        @
        if Sim.Trace.dropped r > 0 then
          [ ("events_dropped", Json.Int (Sim.Trace.dropped r)) ]
        else []
  in
  Json.Obj fields

let snapshot t =
  let at = t.clock () in
  let scopes =
    List.sort
      (fun a b -> compare (a.path, a.labels) (b.path, b.labels))
      (List.filter
         (fun s -> s.metrics <> [] || s.ring <> None)
         (List.rev t.scopes))
  in
  Json.Obj
    [
      ("schema", Json.String "npr-telemetry/1");
      ("at_ps", Json.Int (Int64.to_int at));
      (* Every registry records: the field stays for readers of the
         npr-telemetry/1 schema. *)
      ("enabled", Json.Bool true);
      ("scopes", Json.List (List.map scope_json scopes));
    ]

let snapshot_string t = Json.to_string (snapshot t)
