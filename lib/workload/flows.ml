(* Internet-realistic flow workload: Zipf destination popularity,
   bounded-Pareto flow sizes, MMPP bursty arrivals.  See flows.mli. *)

module Zipf = struct
  (* Hörmann's rejection-inversion sampler for the Zipf distribution on
     [1..n] with exponent s: invert the integral of the dominating
     density, then accept/reject against the discrete mass.  Setup and
     each draw are O(1), so "millions of hosts" is a config value, not a
     table. *)

  type t = {
    rng : Sim.Rng.t;
    n : int;
    s : float;
    h_x1 : float;  (* h_integral(1.5) - 1 *)
    h_n : float;  (* h_integral(n + 0.5) *)
    cut : float;  (* acceptance shortcut threshold *)
  }

  let h_integral s x =
    if s = 1.0 then log x else ((x ** (1. -. s)) -. 1.) /. (1. -. s)

  let h s x = x ** (-.s)

  let h_integral_inv s y =
    if s = 1.0 then exp y
    else (1. +. (y *. (1. -. s))) ** (1. /. (1. -. s))

  let create ~rng ~n ~s =
    if n < 1 then invalid_arg "Flows.Zipf.create: n";
    if s <= 0. then invalid_arg "Flows.Zipf.create: s";
    {
      rng;
      n;
      s;
      h_x1 = h_integral s 1.5 -. 1.;
      h_n = h_integral s (float_of_int n +. 0.5);
      cut = 2. -. h_integral_inv s (h_integral s 2.5 -. h s 2.);
    }

  let rec draw z =
    let u = z.h_n +. (Sim.Rng.float z.rng 1.0 *. (z.h_x1 -. z.h_n)) in
    let x = h_integral_inv z.s u in
    let k = int_of_float (Float.round x) in
    let k = if k < 1 then 1 else if k > z.n then z.n else k in
    let kf = float_of_int k in
    if kf -. x <= z.cut || u >= h_integral z.s (kf +. 0.5) -. h z.s kf then k
    else draw z
end

let pareto_pkts ~rng ~shape ~min_pkts ~max_pkts =
  (* Inverse-CDF bounded Pareto: u in [0,1) keeps 1-u in (0,1], so the
     draw is finite; the cap bounds the elephants a finite run can
     carry. *)
  let u = Sim.Rng.float rng 1.0 in
  let x = min_pkts /. ((1.0 -. u) ** (1.0 /. shape)) in
  let p = int_of_float (Float.ceil x) in
  if p < 1 then 1 else if p > max_pkts then max_pkts else p

type config = {
  pps : float;
  n_hosts : int;
  n_subnets : int;
  zipf_s : float;
  pareto_shape : float;
  pareto_min_pkts : float;
  max_flow_pkts : int;
  concurrency : int;
  burst_ratio : float;
  burst_us : float;
  idle_us : float;
  frame_len : int;
  udp_share : float;
  dscp_classes : int;
}

let default =
  {
    pps = 100_000.;
    n_hosts = 65_536;
    n_subnets = 8;
    zipf_s = 1.0;
    pareto_shape = 1.2;
    pareto_min_pkts = 2.;
    max_flow_pkts = 10_000;
    concurrency = 64;
    burst_ratio = 4.;
    burst_us = 200.;
    idle_us = 800.;
    frame_len = Packet.Build.min_frame;
    udp_share = 0.8;
    dscp_classes = 4;
  }

let validate c =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if c.pps <= 0. then err "pps must be positive"
  else if c.n_hosts < 1 then err "hosts must be >= 1"
  else if c.n_subnets < 1 || c.n_subnets > 255 then err "subnets must be 1..255"
  else if c.zipf_s <= 0. then err "zipf exponent must be positive"
  else if c.pareto_shape <= 0. then err "pareto shape must be positive"
  else if c.pareto_min_pkts < 1. then err "minpkts must be >= 1"
  else if c.max_flow_pkts < 1 then err "maxpkts must be >= 1"
  else if c.concurrency < 1 then err "conc must be >= 1"
  else if c.burst_ratio < 1. then err "burst ratio must be >= 1"
  else if c.burst_us <= 0. then err "burst_us must be positive"
  else if c.idle_us <= 0. then err "idle_us must be positive"
  else if c.frame_len < Packet.Build.min_frame || c.frame_len > Packet.Build.max_frame
  then err "frame must be %d..%d" Packet.Build.min_frame Packet.Build.max_frame
  else if c.udp_share < 0. || c.udp_share > 1. then err "udp must be in [0,1]"
  else if c.dscp_classes < 1 || c.dscp_classes > 8 then err "dscp must be 1..8"
  else Ok c

(* Spec keys, shared by parse and to_spec so the round-trip cannot
   drift.  Each entry: key, read from config, write into config — a
   [Real] field takes any finite value, an [Int] field only integers. *)
type setter =
  | Real of (config -> float -> config)
  | Int of (config -> int -> config)

let keys : (string * (config -> float) * setter) list =
  [
    ("pps", (fun c -> c.pps), Real (fun c v -> { c with pps = v }));
    ( "hosts",
      (fun c -> float_of_int c.n_hosts),
      Int (fun c v -> { c with n_hosts = v }) );
    ( "subnets",
      (fun c -> float_of_int c.n_subnets),
      Int (fun c v -> { c with n_subnets = v }) );
    ("zipf", (fun c -> c.zipf_s), Real (fun c v -> { c with zipf_s = v }));
    ( "pareto",
      (fun c -> c.pareto_shape),
      Real (fun c v -> { c with pareto_shape = v }) );
    ( "minpkts",
      (fun c -> c.pareto_min_pkts),
      Real (fun c v -> { c with pareto_min_pkts = v }) );
    ( "maxpkts",
      (fun c -> float_of_int c.max_flow_pkts),
      Int (fun c v -> { c with max_flow_pkts = v }) );
    ( "conc",
      (fun c -> float_of_int c.concurrency),
      Int (fun c v -> { c with concurrency = v }) );
    ( "burst",
      (fun c -> c.burst_ratio),
      Real (fun c v -> { c with burst_ratio = v }) );
    ("burst_us", (fun c -> c.burst_us), Real (fun c v -> { c with burst_us = v }));
    ("idle_us", (fun c -> c.idle_us), Real (fun c v -> { c with idle_us = v }));
    ( "frame",
      (fun c -> float_of_int c.frame_len),
      Int (fun c v -> { c with frame_len = v }) );
    ("udp", (fun c -> c.udp_share), Real (fun c v -> { c with udp_share = v }));
    ( "dscp",
      (fun c -> float_of_int c.dscp_classes),
      Int (fun c v -> { c with dscp_classes = v }) );
  ]

let parse spec =
  let body =
    match spec with
    | "flows" | "" -> ""
    | s when String.length s >= 6 && String.sub s 0 6 = "flows:" ->
        String.sub s 6 (String.length s - 6)
    | s -> s
  in
  let fields =
    if body = "" then []
    else String.split_on_char ',' body
  in
  let rec fold c = function
    | [] -> validate c
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i -> (
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            match List.find_opt (fun (name, _, _) -> name = k) keys with
            | None -> Error (Printf.sprintf "unknown key %S" k)
            | Some (_, _, set) -> (
                match (float_of_string_opt v, set) with
                | None, _ -> Error (Printf.sprintf "bad value %S for %s" v k)
                | Some f, _ when not (Float.is_finite f) ->
                    Error (Printf.sprintf "%s: %S is not a finite number" k v)
                | Some f, Real set -> fold (set c f) rest
                | Some f, Int _ when not (Float.is_integer f) ->
                    Error (Printf.sprintf "%s: %S is not an integer" k v)
                | Some f, Int _ when Float.abs f >= 0x1p62 ->
                    Error (Printf.sprintf "%s: %S is out of range (|v| >= 2^62)" k v)
                | Some f, Int set -> fold (set c (int_of_float f)) rest)))
  in
  fold default fields

(* [%g] where it parses back exactly, else every digit: [to_spec] must
   round-trip. *)
let num v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_spec c =
  let fields =
    List.filter_map
      (fun (name, get, _) ->
        if get c = get default then None else Some (name ^ "=" ^ num (get c)))
      keys
  in
  if fields = [] then "flows"
  else "flows:" ^ String.concat "," (List.sort compare fields)

type state = Calm | Burst

type flow = {
  src : Packet.Ipv4.addr;
  dst : Packet.Ipv4.addr;
  sport : int;
  dport : int;
  proto : int;
  tos : int;
  size : int;
  mutable remaining : int;
}

type t = {
  cfg : config;
  arrival_rng : Sim.Rng.t;
  flow_rng : Sim.Rng.t;
  zipf : Zipf.t;
  pool : Packet.Frame_pool.t option;
  slots : flow option array;
  mutable state : state;
  mutable state_left_ps : int64;
  mutable primed : bool;
  mutable n_flows : int;
  mutable n_pkts : int;
  calm_pps : float;
  burst_pps : float;
}

let create ?pool ~rng cfg =
  (match validate cfg with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Flows.create: " ^ m));
  let arrival_rng = Sim.Rng.split rng in
  let flow_rng = Sim.Rng.split rng in
  (* The calm rate that makes the long-run mean come out at [pps] once
     burst periods run [burst_ratio] times hotter. *)
  let calm_pps =
    cfg.pps *. (cfg.idle_us +. cfg.burst_us)
    /. (cfg.idle_us +. (cfg.burst_ratio *. cfg.burst_us))
  in
  {
    cfg;
    arrival_rng;
    flow_rng;
    zipf = Zipf.create ~rng:flow_rng ~n:cfg.n_hosts ~s:cfg.zipf_s;
    pool;
    slots = Array.make cfg.concurrency None;
    state = Calm;
    state_left_ps = 0L;
    primed = false;
    n_flows = 0;
    n_pkts = 0;
    calm_pps;
    burst_pps = cfg.burst_ratio *. calm_pps;
  }

let rate t = match t.state with Calm -> t.calm_pps | Burst -> t.burst_pps

let sojourn_ps t =
  let mean_us =
    match t.state with Calm -> t.cfg.idle_us | Burst -> t.cfg.burst_us
  in
  let us = Sim.Rng.exponential t.arrival_rng ~mean:mean_us in
  (* Floor at 1 us: a run of zero-length sojourns would spin without
     advancing the arrival clock. *)
  Sim.Engine.of_seconds ((if us < 1.0 then 1.0 else us) *. 1e-6)

let next_gap t =
  if t.cfg.burst_ratio = 1.0 then
    (* MMPP off: exactly the Poisson stream — same draws, same gaps, the
       zero-draw-when-disabled discipline. *)
    Sim.Engine.of_seconds
      (Sim.Rng.exponential t.arrival_rng ~mean:(1. /. t.cfg.pps))
  else begin
    if not t.primed then begin
      t.primed <- true;
      t.state_left_ps <- sojourn_ps t
    end;
    let rec go acc =
      let gap =
        Sim.Engine.of_seconds
          (Sim.Rng.exponential t.arrival_rng ~mean:(1. /. rate t))
      in
      if gap <= t.state_left_ps then begin
        t.state_left_ps <- Int64.sub t.state_left_ps gap;
        Int64.add acc gap
      end
      else begin
        (* Sojourn expires before the arrival: advance to the boundary,
           flip state, and redraw there (the exponential is memoryless,
           so restarting the arrival clock is exact). *)
        let acc = Int64.add acc t.state_left_ps in
        t.state <- (match t.state with Calm -> Burst | Burst -> Calm);
        t.state_left_ps <- sojourn_ps t;
        go acc
      end
    in
    go 0L
  end

let services = [| 80; 443; 53; 123; 25; 22; 8080; 5060 |]

let dst_addr cfg rank =
  (* Hosts round-robin over the routed /16s: rank r lives in subnet
     [r mod n_subnets], so popularity skew spreads across every output
     port instead of melting one. *)
  let h = rank - 1 in
  let subnet = h mod cfg.n_subnets in
  let host = 1 + (h / cfg.n_subnets mod 0xFFFE) in
  Mix.subnet_addr ~subnet ~host

let new_flow t =
  let cfg = t.cfg in
  let rank = Zipf.draw t.zipf in
  let dst = dst_addr cfg rank in
  let src =
    Mix.subnet_addr
      ~subnet:(200 + Sim.Rng.int t.flow_rng 8)
      ~host:(1 + Sim.Rng.int t.flow_rng 0xFFFE)
  in
  let sport = 1024 + Sim.Rng.int t.flow_rng 60_000 in
  let dport = Sim.Rng.pick t.flow_rng services in
  let proto =
    if cfg.udp_share >= 1.0 then Packet.Ipv4.proto_udp
    else if cfg.udp_share <= 0.0 then Packet.Ipv4.proto_tcp
    else if Sim.Rng.float t.flow_rng 1.0 < cfg.udp_share then
      Packet.Ipv4.proto_udp
    else Packet.Ipv4.proto_tcp
  in
  let tos =
    if cfg.dscp_classes <= 1 then 0
    else Sim.Rng.int t.flow_rng cfg.dscp_classes lsl 5
  in
  let size =
    pareto_pkts ~rng:t.flow_rng ~shape:cfg.pareto_shape
      ~min_pkts:cfg.pareto_min_pkts ~max_pkts:cfg.max_flow_pkts
  in
  t.n_flows <- t.n_flows + 1;
  { src; dst; sport; dport; proto; tos; size; remaining = size }

let gen t _i =
  let cfg = t.cfg in
  let slot =
    if cfg.concurrency = 1 then 0 else Sim.Rng.int t.flow_rng cfg.concurrency
  in
  let fl =
    match t.slots.(slot) with
    | Some fl when fl.remaining > 0 -> fl
    | _ ->
        let fl = new_flow t in
        t.slots.(slot) <- Some fl;
        fl
  in
  fl.remaining <- fl.remaining - 1;
  t.n_pkts <- t.n_pkts + 1;
  if fl.proto = Packet.Ipv4.proto_udp then
    Packet.Build.udp ?pool:t.pool ~frame_len:cfg.frame_len ~src:fl.src
      ~dst:fl.dst ~src_port:fl.sport ~dst_port:fl.dport ~tos:fl.tos ()
  else
    let sent = fl.size - fl.remaining - 1 in
    Packet.Build.tcp ?pool:t.pool ~frame_len:cfg.frame_len ~src:fl.src
      ~dst:fl.dst ~src_port:fl.sport ~dst_port:fl.dport ~tos:fl.tos
      ~seq:(Int32.of_int (1000 + (sent * 512)))
      ()

let spawn t engine ~name ~offer =
  Source.spawn_with_gap engine ~name
    ~next_gap:(fun () -> next_gap t)
    ~gen:(gen t) ~offer ()

let flows_started t = t.n_flows
let pkts t = t.n_pkts
