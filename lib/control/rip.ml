let port = 520
let infinity_metric = 16

type announcement = { prefix : Iproute.Prefix.t; metric : int }

let encode ~src ~dst routes =
  if List.length routes > 16 then invalid_arg "Rip.encode: too many routes";
  let payload = Bytes.make (1 + (8 * List.length routes)) '\000' in
  Bytes.set payload 0 (Char.chr (List.length routes));
  List.iteri
    (fun i { prefix; metric } ->
      let off = 1 + (8 * i) in
      let a = Iproute.Prefix.bits prefix in
      Bytes.set payload off (Char.chr ((a lsr 24) land 0xFF));
      Bytes.set payload (off + 1) (Char.chr ((a lsr 16) land 0xFF));
      Bytes.set payload (off + 2) (Char.chr ((a lsr 8) land 0xFF));
      Bytes.set payload (off + 3) (Char.chr (a land 0xFF));
      Bytes.set payload (off + 4) (Char.chr (Iproute.Prefix.length prefix));
      Bytes.set payload (off + 5) (Char.chr (min 255 (max 0 metric))))
    routes;
  Packet.Build.udp
    ~frame_len:(max 64 (42 + Bytes.length payload))
    ~src ~dst ~src_port:port ~dst_port:port
    ~payload:(Bytes.to_string payload) ()

let decode frame =
  if
    Packet.Frame.len frame
    < Packet.Ipv4.offset + Packet.Ipv4.min_header_len
    || (not (Packet.Ipv4.valid frame))
    || Packet.Ipv4.payload_offset frame + 8 > Packet.Frame.len frame
    || Packet.Ipv4.get_proto frame <> Packet.Ipv4.proto_udp
    || Packet.Udp.get_dst_port frame <> port
  then None
  else begin
    let off = Packet.Udp.payload_offset frame in
    if off >= Packet.Frame.len frame then None
    else begin
      let count = Packet.Frame.get_u8 frame off in
      if off + 1 + (8 * count) > Packet.Frame.len frame then None
      else begin
        let entry i =
          let e = off + 1 + (8 * i) in
          let addr = Packet.Frame.get_u32 frame e in
          let len = Packet.Frame.get_u8 frame (e + 4) in
          let metric = Packet.Frame.get_u8 frame (e + 5) in
          if len > 32 then None
          else Some { prefix = Iproute.Prefix.make addr len; metric }
        in
        let rec gather i acc =
          if i = count then Some (List.rev acc)
          else
            match entry i with
            | None -> None
            | Some a -> gather (i + 1) (a :: acc)
        in
        gather 0 []
      end
    end
  end

type stats = {
  announcements : Sim.Stats.Counter.t;
  routes_installed : Sim.Stats.Counter.t;
  routes_withdrawn : Sim.Stats.Counter.t;
  rejected : Sim.Stats.Counter.t;
}

type rib_entry = { metric : int; via_port : int }

type t = {
  router : Router.t;
  rib : (Iproute.Prefix.t, rib_entry) Hashtbl.t;
  stats : stats;
  mutable last_change_ps : int64; (* -1 until the first table write *)
  mutable table_changes : int;
}

let create router =
  let t =
    {
      router;
      rib = Hashtbl.create 64;
      stats =
        {
          announcements = Sim.Stats.Counter.create "rip.announcements";
          routes_installed = Sim.Stats.Counter.create "rip.installed";
          routes_withdrawn = Sim.Stats.Counter.create "rip.withdrawn";
          rejected = Sim.Stats.Counter.create "rip.rejected";
        };
      last_change_ps = -1L;
      table_changes = 0;
    }
  in
  (* Convergence scope: `quiet_us` is how long the table has been
     stable — a telemetry snapshot taken after a churn burst reads the
     convergence point straight off the gauge. *)
  let scope = Telemetry.Registry.scope router.Router.telemetry "rip" in
  Telemetry.Registry.Scope.register_counter scope ~name:"announcements"
    t.stats.announcements;
  Telemetry.Registry.Scope.register_counter scope ~name:"installed"
    t.stats.routes_installed;
  Telemetry.Registry.Scope.register_counter scope ~name:"withdrawn"
    t.stats.routes_withdrawn;
  Telemetry.Registry.Scope.register_counter scope ~name:"rejected"
    t.stats.rejected;
  Telemetry.Registry.Scope.gauge_int scope "routes" (fun () ->
      Hashtbl.length t.rib);
  Telemetry.Registry.Scope.gauge_int scope "table_changes" (fun () ->
      t.table_changes);
  Telemetry.Registry.Scope.gauge scope "quiet_us" (fun () ->
      if t.last_change_ps < 0L then -1.
      else
        Int64.to_float
          (Int64.sub (Sim.Engine.time router.Router.engine) t.last_change_ps)
        /. 1e6);
  t

let stats t = t.stats

let touch t =
  t.last_change_ps <- Sim.Engine.time t.router.Router.engine;
  t.table_changes <- t.table_changes + 1

let last_change_ps t = t.last_change_ps
let table_changes t = t.table_changes

let quiet_ps t =
  let now = Sim.Engine.time t.router.Router.engine in
  if t.last_change_ps < 0L then now else Int64.sub now t.last_change_ps

let router_addr p =
  Int32.of_int ((10 lsl 24) lor (254 lsl 16) lor ((p land 0xFF) lsl 8) lor 1)

let apply t ~via_port { prefix; metric } =
  let metric = min infinity_metric (metric + 1) in
  let current = Hashtbl.find_opt t.rib prefix in
  if metric >= infinity_metric then begin
    (* Withdrawal: only the current next hop may retract the route. *)
    match current with
    | Some e when e.via_port = via_port ->
        Hashtbl.remove t.rib prefix;
        Iproute.Table.remove t.router.Router.routes prefix;
        touch t;
        Sim.Stats.Counter.incr t.stats.routes_withdrawn
    | Some _ | None -> Sim.Stats.Counter.incr t.stats.rejected
  end
  else begin
    (* A pure refresh (same next hop, same metric) must not touch the
       table: a table write invalidates route-cache lines, and periodic
       refreshes would otherwise tax the data plane for nothing. *)
    let refresh =
      match current with
      | Some e -> e.via_port = via_port && e.metric = metric
      | None -> false
    in
    let better =
      match current with
      | None -> true
      | Some e -> metric < e.metric || e.via_port = via_port
    in
    if refresh then Sim.Stats.Counter.incr t.stats.rejected
    else if better then begin
      Hashtbl.replace t.rib prefix { metric; via_port };
      Iproute.Table.add t.router.Router.routes prefix
        (Router.nexthop t.router via_port);
      touch t;
      Sim.Stats.Counter.incr t.stats.routes_installed
    end
    else Sim.Stats.Counter.incr t.stats.rejected
  end

(* Parsing an announcement and updating the table is host work: roughly
   the shortest-path bookkeeping the paper budgets OSPF cycles for. *)
let listener_forwarder t =
  Router.Forwarder.make ~name:"rip-listener" ~code:[] ~state_bytes:0
    ~host_cycles:5000 (fun ~state:_ frame ~in_port ->
      (match decode frame with
      | None -> Sim.Stats.Counter.incr t.stats.rejected
      | Some routes ->
          Sim.Stats.Counter.incr t.stats.announcements;
          List.iter (apply t ~via_port:in_port) routes);
      (* Control packets terminate here. *)
      Router.Forwarder.Drop)

let add_neighbor t ~addr ~via_port =
  let key =
    Packet.Flow.Tuple
      {
        Packet.Flow.src_addr = addr;
        src_port = port;
        dst_addr = router_addr via_port;
        dst_port = port;
      }
  in
  Router.Iface.install t.router.Router.iface ~key ~fwdr:(listener_forwarder t)
    ~where:Router.Iface.PE ~expected_pps:2_000. ()

let best_metric t prefix =
  Option.map (fun e -> e.metric) (Hashtbl.find_opt t.rib prefix)

let route_count t = Hashtbl.length t.rib
