type entry = {
  fid : int;
  key : Packet.Flow.t;
  where : Desc.level;
  fwdr : Forwarder.t;
  state : Bytes.t;
}

type t = {
  cm : Cost_model.t;
  routes : Iproute.Table.t;
  flows : (Packet.Flow.tuple, entry) Hashtbl.t;
  mutable general : entry list;
  (* Scratch verdict of [decide].  One packet is classified at a time
     per classifier value within a charging window: the caller must copy
     these fields out before its next hardware charge, because a charge
     can suspend (classic mode) and let a sibling context re-fill the
     scratch. *)
  mutable s_per_flow : entry option;
  mutable s_general : entry list;
  mutable s_route : Iproute.Table.nexthop; (* Table.no_route = none *)
  mutable s_route_cache_hit : bool;
  s_hit : bool ref;
}

let create cm ~routes =
  {
    cm;
    routes;
    flows = Hashtbl.create 64;
    general = [];
    s_per_flow = None;
    s_general = [];
    s_route = Iproute.Table.no_route;
    s_route_cache_hit = false;
    s_hit = ref false;
  }

let is_ip_entry e = e.fwdr.Forwarder.name = "ip"

let add t e =
  match e.key with
  | Packet.Flow.Tuple k -> Hashtbl.replace t.flows k e
  | Packet.Flow.All ->
      (* Keep minimal IP as the chain's tail (Figure 11). *)
      let ip, rest = List.partition is_ip_entry (t.general @ [ e ]) in
      t.general <- rest @ ip

let remove t fid =
  let found = ref None in
  Hashtbl.iter
    (fun k e -> if e.fid = fid then found := Some (`Flow k, e))
    t.flows;
  (match List.find_opt (fun e -> e.fid = fid) t.general with
  | Some e -> found := Some (`General, e)
  | None -> ());
  match !found with
  | None -> None
  | Some (`Flow k, e) ->
      Hashtbl.remove t.flows k;
      Some e
  | Some (`General, e) ->
      t.general <- List.filter (fun x -> x.fid <> fid) t.general;
      Some e

let find_fid t fid =
  match List.find_opt (fun e -> e.fid = fid) t.general with
  | Some e -> Some e
  | None ->
      let found = ref None in
      Hashtbl.iter (fun _ e -> if e.fid = fid then found := Some e) t.flows;
      !found

let general_chain t = t.general

(* The one decision procedure.  The verdict goes into the scratch
   fields rather than a fresh record, the route probe is the native-int
   sentinel form, and the flow hash is skipped outright when no per-flow
   entry is installed (the table probe on an empty table is a pure
   no-op, but [Flow.of_frame] boxes a key per packet).  The ethertype
   check matters: a frame whose type field is damaged on the wire can
   still carry an intact IP header behind it, and without this guard it
   would be forwarded with a garbage ethertype. *)
let decide t frame =
  if
    Packet.Frame.len frame < 14
    || Packet.Ethernet.get_ethertype frame <> Packet.Ethernet.ethertype_ipv4
    || not (Packet.Ipv4.valid frame)
  then false
  else begin
    t.s_per_flow <-
      (if Hashtbl.length t.flows = 0 then None
       else
         match Packet.Flow.of_frame frame with
         | None -> None
         | Some k -> (
             match Hashtbl.find_opt t.flows k with
             | Some _ as e -> e
             | None -> None));
    t.s_general <- t.general;
    t.s_route <-
      Iproute.Table.lookup_cached t.routes (Packet.Ipv4.get_dst_i frame)
        ~hit:t.s_hit;
    t.s_route_cache_hit <- !(t.s_hit);
    true
  end

let scratch_per_flow t = t.s_per_flow
let scratch_general t = t.s_general
let scratch_route t = t.s_route
let scratch_route_cache_hit t = t.s_route_cache_hit

(* Section 4.5's charges.  The decision does not use the hash values
   (the model keys its tables itself), so [hash_charge] books each
   hash's latency without an operand to box. *)
let classify t ctx frame =
  let cm = t.cm in
  Chip_ctx.exec ctx cm.Cost_model.classify_full_instr;
  Chip_ctx.hash_charge ctx;
  Chip_ctx.hash_charge ctx;
  Chip_ctx.sram_read ctx ~bytes:cm.Cost_model.classify_full_sram_bytes;
  decide t frame
