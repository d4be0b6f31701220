type nexthop = { out_port : int; gateway_mac : Packet.Ethernet.mac }

type engine = Poptrie

(* The trie stores a 16-bit id per route, and the next-hop table maps
   it back.  Ids go out in order of first appearance, equal next hops
   share one, and an id keeps its next hop for the table's life: a
   router has a next hop per port and a few more, so the table stays
   small.  [index] is open addressing over the ids ([-1] empty) with
   twice as many slots as [by_id], so it is at most half full: a word a
   slot, where a [Hashtbl] cell costs four a next hop and raised a
   cluster's words at create.  The first add builds the table; until
   then [hops] is a constant that carries only the invalidation mode,
   so [create] allocates no more than the trie and the cache. *)
type hops =
  | Plain
  | Selective
  | Hops of {
      selective : bool;
      mutable by_id : nexthop array;
      mutable index : int array;
      mutable count : int;
    }

type t = { fib : Poptrie.t; cache : nexthop Route_cache.t; mutable hops : hops }

let create ?(cache_slots = 1024) ?(selective_invalidation = false) () =
  {
    fib = Poptrie.create ();
    cache = Route_cache.create ~slots:cache_slots ();
    hops = (if selective_invalidation then Selective else Plain);
  }

let hash nh =
  let x = ((nh.out_port * 0x9E3779B1) lxor nh.gateway_mac) * 0x85EBCA6B in
  x lxor (x lsr 15)

let rec probe by_id index nh mask i =
  let id = index.(i) in
  if id < 0 then i
  else
    let o = by_id.(id) in
    if o.out_port = nh.out_port && o.gateway_mac = nh.gateway_mac then i
    else probe by_id index nh mask ((i + 1) land mask)

(* The index slot holding [nh]'s id, or the empty slot it would take. *)
let slot by_id index nh =
  let mask = Array.length index - 1 in
  probe by_id index nh mask (hash nh land mask)

let rec intern t nh =
  match t.hops with
  | (Plain | Selective) as mode ->
      t.hops <-
        Hops
          {
            selective = mode = Selective;
            by_id = Array.make 16 nh;
            index = Array.make 32 (-1);
            count = 0;
          };
      intern t nh
  | Hops h ->
      let i = slot h.by_id h.index nh in
      if h.index.(i) >= 0 then h.index.(i)
      else begin
        if h.count > Poptrie.max_value then
          invalid_arg "Table.add: more than 65536 distinct next hops";
        let i =
          if h.count < Array.length h.by_id then i
          else begin
            let n = 2 * h.count in
            let by_id = Array.make n nh in
            Array.blit h.by_id 0 by_id 0 h.count;
            let index = Array.make (2 * n) (-1) in
            for id = 0 to h.count - 1 do
              index.(slot by_id index by_id.(id)) <- id
            done;
            h.by_id <- by_id;
            h.index <- index;
            slot by_id index nh
          end
        in
        let id = h.count in
        h.by_id.(id) <- nh;
        h.index.(i) <- id;
        h.count <- id + 1;
        id
      end

(* Only called with an id the trie answered, which some add gave. *)
let hop t id =
  match t.hops with Hops h -> h.by_id.(id) | Plain | Selective -> assert false

let on_change t p =
  match t.hops with
  | Selective | Hops { selective = true; _ } ->
      Route_cache.invalidate_covered t.cache p
  | Plain | Hops { selective = false; _ } -> Route_cache.invalidate t.cache

let add t p nh =
  Poptrie.add t.fib p (intern t nh);
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
  let id = Poptrie.lookup_or t.fib (Int32.to_int a) ~default:(-1) in
  if id < 0 then None else Some (hop t id)

let lookup_cached t k ~hit =
  let nh = Route_cache.find_or t.cache k ~default:no_route in
  if nh != no_route then begin
    hit := true;
    nh
  end
  else begin
    hit := false;
    let id = Poptrie.lookup_or t.fib k ~default:(-1) in
    if id < 0 then no_route
    else begin
      let nh = hop t id in
      Route_cache.insert t.cache k nh;
      nh
    end
  end

let size t = Poptrie.size t.fib
let bindings t =
  List.map (fun (p, id) -> (p, hop t id)) (Poptrie.bindings t.fib)
let cache_hit_rate t = Route_cache.hit_rate t.cache
let cache_scan_cost t = Route_cache.scan_cost t.cache
