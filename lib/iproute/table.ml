type nexthop = { out_port : int; gateway_mac : Packet.Ethernet.mac }

type engine = Cpe | Poptrie

type backend =
  | B_cpe of nexthop Cpe.t
  | B_pop of nexthop Poptrie.t

type t = {
  backend : backend;
  cache : nexthop Route_cache.t;
  selective : bool;
}

let create ?(engine = Cpe) ?(cache_slots = 1024)
    ?(selective_invalidation = false) () =
  let backend =
    match engine with
    | Cpe -> B_cpe (Cpe.build ~strides:[ 16; 8; 8 ] [])
    | Poptrie -> B_pop (Poptrie.create ())
  in
  {
    backend;
    cache = Route_cache.create ~slots:cache_slots ();
    selective = selective_invalidation;
  }

let on_change t p =
  if t.selective then Route_cache.invalidate_covered t.cache p
  else Route_cache.invalidate t.cache

let add t p nh =
  (match t.backend with
  | B_cpe c -> Cpe.add c p nh
  | B_pop pt -> Poptrie.add pt p nh);
  on_change t p

let remove t p =
  (match t.backend with
  | B_cpe c -> Cpe.remove c p
  | B_pop pt -> Poptrie.remove pt p);
  on_change t p

let lookup t a =
  match t.backend with
  | B_cpe c -> Option.map snd (Cpe.lookup c a)
  | B_pop pt -> Option.map snd (Poptrie.lookup pt a)

let lookup_cached t a =
  match Route_cache.find t.cache a with
  | Some nh -> `Hit nh
  | None -> (
      match lookup t a with
      | Some nh ->
          Route_cache.insert t.cache a nh;
          `Miss (Some nh)
      | None -> `Miss None)

(* Hot-path form: the miss sentinel replaces the option, the [hit] out-
   parameter replaces the polymorphic-variant wrapper, and the key is
   the 32 address bits as a native int — a cache hit allocates nothing.
   The full LPM on a miss still boxes its [int32] key; misses are the
   divert path and pay far more than one box anyway. *)
let no_route = { out_port = min_int; gateway_mac = 0 }

let lookup_cached_i t k ~hit =
  let nh = Route_cache.find_or t.cache k ~default:no_route in
  if nh != no_route then begin
    hit := true;
    nh
  end
  else begin
    hit := false;
    match lookup t (Int32.of_int k) with
    | Some nh ->
        Route_cache.insert_i t.cache k nh;
        nh
    | None -> no_route
  end

let size t =
  match t.backend with
  | B_cpe c -> Cpe.size c
  | B_pop pt -> Poptrie.size pt

let bindings t =
  match t.backend with
  | B_cpe c -> Cpe.bindings c
  | B_pop pt -> Poptrie.bindings pt

let node_count t =
  match t.backend with
  | B_cpe c -> Cpe.memory_entries c
  | B_pop pt -> Poptrie.node_count pt

let cache_hit_rate t = Route_cache.hit_rate t.cache
let cache_scan_cost t = Route_cache.scan_cost t.cache

let engine_name t =
  match t.backend with
  | B_cpe _ -> "cpe"
  | B_pop _ -> "poptrie"

let pp_nexthop ppf nh =
  Format.fprintf ppf "port %d via %a" nh.out_port Packet.Ethernet.pp_mac
    nh.gateway_mac
