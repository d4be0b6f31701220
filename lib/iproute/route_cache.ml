(* Keys are native ints (the 32 address bits, [0 .. 2^32-1]): the
   [int32] form of the first version forced a boxed key compare per
   probe, and the tuple-in-option line layout forced a [Some v] per hit.
   Lines are now two parallel arrays — an int key array ([-1] = empty;
   no masked address is negative) and a value array — so the fast-path
   probe {!find_or} touches no allocator at all.  The value array holds
   values bare, not in options: it is built by the first insert, filled
   with that value, so an insert allocates nothing either.  A line's
   value means something only while its key is set; a dropped line
   keeps its old value until the next insert overwrites it. *)

type 'a t = {
  hash : int -> int;
  keys : int array; (* -1 = empty line *)
  mutable vals : 'a array; (* [||] until the first insert *)
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
    vals = [||];
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
    c.vals.(l)
  end
  else begin
    c.misses <- c.misses + 1;
    default
  end

let insert c k v =
  let l = line c k in
  if c.keys.(l) < 0 then c.live <- c.live + 1;
  c.keys.(l) <- k;
  if Array.length c.vals = 0 then c.vals <- Array.make (Array.length c.keys) v
  else c.vals.(l) <- v

(* Every invalidation returns at once on an empty cache, so a route
   install into a cold cache — a whole table loaded at start-up — costs
   the table write alone, not a pass over every line. *)
let invalidate c =
  if c.live > 0 then begin
    let slots = Array.length c.keys in
    c.scan_cost <- c.scan_cost + slots;
    Array.fill c.keys 0 slots (-1);
    c.live <- 0
  end

let drop_line c l =
  c.keys.(l) <- -1;
  c.live <- c.live - 1

(* Drop the occupied lines whose native-int key satisfies [pred]. *)
let drop_where c pred =
  if c.live > 0 then begin
    c.scan_cost <- c.scan_cost + Array.length c.keys;
    Array.iteri (fun i k -> if k >= 0 && pred k then drop_line c i) c.keys
  end

let invalidate_matching c pred = drop_where c (fun k -> pred (Int32.of_int k))

let invalidate_covered c p =
  let host = 32 - Prefix.length p in
  let base = Prefix.bits p in
  let slots = Array.length c.keys in
  if c.live = 0 then ()
  else if 1 lsl host < slots then begin
    (* Few covered addresses: probe each one's line directly instead of
       scanning every slot — a /32 change touches exactly one line. *)
    let n = 1 lsl host in
    c.scan_cost <- c.scan_cost + n;
    for i = 0 to n - 1 do
      let k = base lor i in
      let l = line c k in
      if c.keys.(l) = k then drop_line c l
    done
  end
  else
    (* A shift by 32 clears every key bit, so a /0 covers every line. *)
    let top = base lsr host in
    drop_where c (fun k -> k lsr host = top)

let scan_cost c = c.scan_cost
let hits c = c.hits
let misses c = c.misses

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total
