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

(* No lookup allocates past the answer: no match is the [no_route]
   sentinel, whether the cache line answered comes back through [hit],
   and the key is the 32 address bits as a native int, which the full
   match on a miss takes as it is. *)
let no_route = { out_port = min_int; gateway_mac = 0 }

let lookup t a =
  let nh = Poptrie.lookup_or t.fib (Int32.to_int a) ~default:no_route in
  if nh == no_route then None else Some nh

let lookup_cached t k ~hit =
  let nh = Route_cache.find_or t.cache k ~default:no_route in
  if nh != no_route then begin
    hit := true;
    nh
  end
  else begin
    hit := false;
    let nh = Poptrie.lookup_or t.fib k ~default:no_route in
    if nh != no_route then Route_cache.insert t.cache k nh;
    nh
  end

let size t = Poptrie.size t.fib
let bindings t = Poptrie.bindings t.fib
let cache_hit_rate t = Route_cache.hit_rate t.cache
let cache_scan_cost t = Route_cache.scan_cost t.cache
