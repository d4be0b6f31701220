type nexthop = { out_port : int; gateway_mac : Packet.Ethernet.mac }

type engine = Poptrie

type t = {
  fib : nexthop Poptrie.t;
  cache : nexthop Route_cache.t;
  selective : bool;
}

let create ?(cache_slots = 1024) ?(selective_invalidation = false) () =
  {
    fib = Poptrie.create ();
    cache = Route_cache.create ~slots:cache_slots ();
    selective = selective_invalidation;
  }

let on_change t p =
  if t.selective then Route_cache.invalidate_covered t.cache p
  else Route_cache.invalidate t.cache

let add t p nh =
  Poptrie.add t.fib p nh;
  on_change t p

let remove t p =
  Poptrie.remove t.fib p;
  on_change t p

let lookup t a = Option.map snd (Poptrie.lookup t.fib a)

(* A cache hit allocates nothing: a miss is the [no_route] sentinel,
   whether the line answered comes back through [hit], and the key is
   the 32 address bits as a native int.  The full LPM on a miss still
   boxes its [int32] key; misses are the divert path and pay far more
   than one box anyway. *)
let no_route = { out_port = min_int; gateway_mac = 0 }

let lookup_cached t k ~hit =
  let nh = Route_cache.find_or t.cache k ~default:no_route in
  if nh != no_route then begin
    hit := true;
    nh
  end
  else begin
    hit := false;
    match lookup t (Int32.of_int k) with
    | Some nh ->
        Route_cache.insert t.cache k nh;
        nh
    | None -> no_route
  end

let size t = Poptrie.size t.fib
let bindings t = Poptrie.bindings t.fib
let cache_hit_rate t = Route_cache.hit_rate t.cache
let cache_scan_cost t = Route_cache.scan_cost t.cache
