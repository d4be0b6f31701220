(* Keys are native ints (the 32 address bits, [0 .. 2^32-1]): the
   [int32] form of the first version forced a boxed key compare per
   probe, and the tuple-in-option line layout forced a [Some v] per hit.
   Lines are now two parallel arrays — an int key array ([-1] = empty;
   no masked address is negative) and a value array — so the fast-path
   probe {!find_or} touches no allocator at all. *)

type 'a t = {
  hash : int -> int;
  keys : int array; (* -1 = empty line *)
  vals : 'a option array; (* dense mirror; [Some] refreshed per insert *)
  mutable live : int; (* occupied lines *)
  mutable hits : int;
  mutable misses : int;
  mutable scan_cost : int;
}

let default_hash_i x =
  (* Full-avalanche mix (the IXP1200's hash unit is CRC-like): line
     selection takes the hash modulo the slot count, so the high address
     bits must reach the low hash bits. *)
  let x = x * 0x9E3779B1 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x85EBCA6B in
  let x = x lxor (x lsr 13) in
  x land max_int

let create ?(hash = default_hash_i) ~slots () =
  if slots <= 0 then invalid_arg "Route_cache.create: slots <= 0";
  {
    hash;
    keys = Array.make slots (-1);
    vals = Array.make slots None;
    live = 0;
    hits = 0;
    misses = 0;
    scan_cost = 0;
  }

let line c k = c.hash k mod Array.length c.keys

(* The hot probe: returns the cached value, or [default] on a miss (an
   empty or mismatched line).  No option, no tuple — the caller compares
   against its own sentinel. *)
let find_or c k ~default =
  let l = line c k in
  if c.keys.(l) = k then begin
    c.hits <- c.hits + 1;
    match c.vals.(l) with Some v -> v | None -> assert false
  end
  else begin
    c.misses <- c.misses + 1;
    default
  end

let insert c k v =
  let l = line c k in
  if c.keys.(l) < 0 then c.live <- c.live + 1;
  c.keys.(l) <- k;
  c.vals.(l) <- Some v

(* Every invalidation returns at once on an empty cache, so a route
   install into a cold cache — a whole table loaded at start-up — costs
   the table write alone, not a pass over every line. *)
let invalidate c =
  if c.live > 0 then begin
    let slots = Array.length c.keys in
    c.scan_cost <- c.scan_cost + slots;
    Array.fill c.keys 0 slots (-1);
    Array.fill c.vals 0 slots None;
    c.live <- 0
  end

let drop_line c l =
  c.keys.(l) <- -1;
  c.vals.(l) <- None;
  c.live <- c.live - 1

let invalidate_matching c pred =
  if c.live > 0 then begin
    c.scan_cost <- c.scan_cost + Array.length c.keys;
    Array.iteri
      (fun i k -> if k >= 0 && pred (Int32.of_int k) then drop_line c i)
      c.keys
  end

let invalidate_covered c p =
  let host = 32 - Prefix.length p in
  let slots = Array.length c.keys in
  if c.live = 0 then ()
  else if host < Sys.int_size - 1 && 1 lsl host < slots then begin
    (* Few covered addresses: probe each one's line directly instead of
       scanning every slot — a /32 change touches exactly one line. *)
    let base = Int32.to_int (Prefix.addr p) land 0xFFFFFFFF in
    let n = 1 lsl host in
    c.scan_cost <- c.scan_cost + n;
    for i = 0 to n - 1 do
      let k = base lor i in
      let l = line c k in
      if c.keys.(l) = k then drop_line c l
    done
  end
  else invalidate_matching c (Prefix.matches p)

let scan_cost c = c.scan_cost
let hits c = c.hits
let misses c = c.misses

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total
