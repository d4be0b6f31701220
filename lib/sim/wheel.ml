(* Two-tier event queue: a timing wheel for near-future events, the
   binary heap as the far tier.

   Pops are globally ordered by [(time, seq)] exactly like {!Heap}: the
   wheel tier keeps every event within [horizon] of the last popped time
   in one of [n_buckets] slots of [2^res_bits] picoseconds each, and a
   pop selects the minimum of the wheel's first non-empty bucket and the
   far heap's root.  Anything scheduled beyond the horizon goes to the
   heap and is merged back purely by that min-comparison, so no cascade
   step exists to get wrong: ordering is identical to a single heap by
   construction, only cheaper.

   Layout choices are driven by the engine's measured queue profile
   (a few dozen pending events, ~10^4 ps apart, plus per-port pacing
   timers a few microseconds out): the horizon must cover the pacing
   gap of a 100 Mbps port (~6.7 us) or every transmit slot round-trips
   through the far heap, and the next-bucket scan must be O(1) or it
   dominates the dispatch loop.  A two-level occupancy bitmap (32
   32-bit words summarized by one 32-bit word) finds the next
   non-empty bucket with two de-Bruijn ctz steps; keys live
   interleaved ([time] at [2i], [seq] at [2i+1]) in one int array per
   bucket so a min-scan walks one cache line, not three.  Values are
   boxed anyway, so they keep their own array.  Buckets grow once to
   steady-state size and are never shrunk, so pushing and popping
   allocate nothing in steady state.  Times are native-int picoseconds
   like the engine's clock; only the far heap boxes them. *)

let bucket_bits = 10
let n_buckets = 1 lsl bucket_bits
let slot_mask = n_buckets - 1

(* 2^13 ps per bucket: about two 232 MHz MicroEngine cycles, so a bucket
   rarely holds more than a couple of events and the in-bucket min scan
   is effectively O(1).  1024 buckets put the horizon at ~8.4 us, wide
   enough for the longest recurring data-path timer (the 84-byte wire
   gap at 100 Mbps, ~6.7 us); only sparse control-plane timers (phase
   barriers, periodic sweeps) go to the heap. *)
let res_bits = 13

(* Strictly less than [n_buckets] buckets ahead, so the slot mapping
   over a window anchored at any (unaligned) floor stays injective. *)
let horizon = (n_buckets - 1) lsl res_bits

(* 32 occupancy bits per word: safely inside OCaml's 63-bit int. *)
let occ_words = n_buckets / 32

(* O(1) count-trailing-zeros over 32-bit values by de Bruijn multiply;
   OCaml has no ctz primitive and a shift loop shows up in profiles.
   The multiply runs in the 63-bit native int, so it is masked back to
   32 bits where a C implementation would truncate. *)
let db32 = 0x077CB531

let db_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((db32 lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let ctz32 x =
  Array.unsafe_get db_table ((((x land -x) * db32) land 0xFFFFFFFF) lsr 27)

type 'a t = {
  b_key : int array array; (* per bucket: time at 2i, seq at 2i+1 *)
  b_val : 'a array array;
  b_len : int array;
  occ : int array; (* level-1 bitmap: bit [slot land 31] of word [slot lsr 5] *)
  mutable occ_sum : int; (* level-2: bit [w] set iff occ.(w) <> 0 *)
  mutable near : int; (* wheel-tier entries *)
  mutable floor : int; (* every wheel entry has time >= floor *)
  mutable cursor : int; (* slot index of floor *)
  (* Cached queue-wide minimum, for the engine's wait-elision test and
     the immediately following pop: valid iff [min_ok].  [min_slot] is
     the wheel slot holding it and [min_idx] the index inside that
     bucket, or [min_slot = -1] when the minimum lives in the far heap.
     Pushes keep the cache current (a push appends, so its position is
     known); any take invalidates it. *)
  mutable cached_min : int;
  mutable min_slot : int;
  mutable min_idx : int;
  mutable min_ok : bool;
  (* Root time of [far] as a native int ([max_int] when empty), so the
     per-pop tier comparison costs no [Int64] unboxing. *)
  mutable far_min : int;
  far : 'a Heap.t;
  mutable far_hits : int; (* pushes that overflowed the horizon *)
  mutable popped_time : int; (* key time of the last pop *)
}

let create () =
  {
    b_key = Array.make n_buckets [||];
    b_val = Array.make n_buckets [||];
    b_len = Array.make n_buckets 0;
    occ = Array.make occ_words 0;
    occ_sum = 0;
    near = 0;
    floor = 0;
    cursor = 0;
    cached_min = max_int;
    min_slot = -1;
    min_idx = 0;
    min_ok = true;
    far_min = max_int;
    far = Heap.create ();
    far_hits = 0;
    popped_time = 0;
  }

let is_empty t = t.near = 0 && Heap.is_empty t.far
let far_hits t = t.far_hits

let push t ~now ~time ~seq v =
  let ti = time in
  if t.near = 0 then begin
    (* Re-anchor the window at the caller's clock: every future push is
       at or after it, so the whole horizon is usable again. *)
    t.floor <- now;
    t.cursor <- (now lsr res_bits) land slot_mask
  end;
  if ti - t.floor >= horizon then begin
    t.far_hits <- t.far_hits + 1;
    if ti < t.far_min then begin
      t.far_min <- ti;
      (* The far root changed; a same-time cached wheel entry still wins
         (its seq is smaller), so only a strict improvement re-points
         the cache at the heap. *)
      if t.min_ok && ti < t.cached_min then begin
        t.cached_min <- ti;
        t.min_slot <- -1
      end
    end;
    Heap.push t.far ~time:(Int64.of_int ti) ~seq v
  end
  else begin
    let slot = (ti lsr res_bits) land slot_mask in
    let len = t.b_len.(slot) in
    let cap = Array.length t.b_val.(slot) in
    if len = cap then begin
      let ncap = if cap = 0 then 4 else cap * 2 in
      let nk = Array.make (2 * ncap) 0 and nv = Array.make ncap v in
      Array.blit t.b_key.(slot) 0 nk 0 (2 * len);
      Array.blit t.b_val.(slot) 0 nv 0 len;
      t.b_key.(slot) <- nk;
      t.b_val.(slot) <- nv
    end;
    let keys = t.b_key.(slot) in
    Array.unsafe_set keys (2 * len) ti;
    Array.unsafe_set keys ((2 * len) + 1) seq;
    Array.unsafe_set t.b_val.(slot) len v;
    t.b_len.(slot) <- len + 1;
    let w = slot lsr 5 in
    t.occ.(w) <- t.occ.(w) lor (1 lsl (slot land 31));
    t.occ_sum <- t.occ_sum lor (1 lsl w);
    t.near <- t.near + 1;
    (* An earlier time strictly improves the minimum (a tie keeps the
       incumbent: equal time means the incumbent's seq is smaller,
       because seqs only grow). *)
    if t.min_ok && ti < t.cached_min then begin
      t.cached_min <- ti;
      t.min_slot <- slot;
      t.min_idx <- len
    end
  end

(* First non-empty bucket at or after the cursor in cyclic slot order
   (the wheel's minimum lives there, because the window's slot order
   matches time order).  Pure: the cursor moves only when an entry is
   actually taken.  A peek must not advance it — the clock (and hence
   future push times) may still lie between the cursor and the first
   occupied bucket, and a push behind an advanced cursor would be
   missed for a whole revolution.  [t.near > 0] guarantees a set bit. *)
let first_bucket t =
  let w = t.cursor lsr 5 in
  let m = t.occ.(w) land (-1 lsl (t.cursor land 31)) in
  if m <> 0 then (w * 32) + ctz32 m
  else begin
    (* Words strictly after the cursor's, then wrap to the earliest
       occupied word (which may be the cursor's own, bits below it). *)
    let s = t.occ_sum land (-1 lsl (w + 1)) in
    let w' = if s <> 0 then ctz32 s else ctz32 t.occ_sum in
    (w' * 32) + ctz32 t.occ.(w')
  end

(* Index of the (time, seq)-minimal entry of a non-empty bucket. *)
let min_in_bucket t slot =
  let keys = t.b_key.(slot) in
  let len = t.b_len.(slot) in
  let best = ref 0 in
  for i = 1 to len - 1 do
    let ti = Array.unsafe_get keys (2 * i)
    and tb = Array.unsafe_get keys (2 * !best) in
    if
      ti < tb
      || ti = tb
         && Array.unsafe_get keys ((2 * i) + 1)
            < Array.unsafe_get keys ((2 * !best) + 1)
    then best := i
  done;
  !best

let take_from_bucket t slot i =
  let len = t.b_len.(slot) - 1 in
  let keys = t.b_key.(slot) and vals = t.b_val.(slot) in
  let time = Array.unsafe_get keys (2 * i) in
  let v = Array.unsafe_get vals i in
  (* Swap-with-last removal; within-bucket order is irrelevant.  [i] and
     [len] are in bounds by construction ([i < b_len], [len = b_len-1]),
     and this runs once per dispatched event. *)
  Array.unsafe_set keys (2 * i) (Array.unsafe_get keys (2 * len));
  Array.unsafe_set keys ((2 * i) + 1) (Array.unsafe_get keys ((2 * len) + 1));
  Array.unsafe_set vals i (Array.unsafe_get vals len);
  t.b_len.(slot) <- len;
  if len = 0 then begin
    let w = slot lsr 5 in
    let ow = t.occ.(w) land lnot (1 lsl (slot land 31)) in
    t.occ.(w) <- ow;
    if ow = 0 then t.occ_sum <- t.occ_sum land lnot (1 lsl w)
  end;
  t.near <- t.near - 1;
  t.floor <- time;
  t.cursor <- slot;
  t.min_ok <- false;
  t.popped_time <- time;
  v

let pop_far t =
  match Heap.pop t.far with
  | None -> invalid_arg "Wheel.pop: empty queue"
  | Some (time, _, v) ->
      t.min_ok <- false;
      t.far_min <-
        (match Heap.peek_time t.far with
        | None -> max_int
        | Some ht -> Int64.to_int ht);
      t.floor <- Int64.to_int time;
      t.cursor <- (t.floor lsr res_bits) land slot_mask;
      t.popped_time <- t.floor;
      v

(* Far-vs-wheel tie: the far entry wins only on a strictly smaller seq,
   looked up only in this rare case (same-time events in different
   tiers). *)
let far_wins_tie t ws =
  match Heap.peek t.far with Some (_, hs) -> hs < ws | None -> false

(* Earliest pending time across both tiers ([max_int] when empty): the
   engine consults this on every wait to decide whether the wait can be
   run in place.  The cache makes the common consult a single load; a
   recompute after a pop is one two-level bitmap probe and one bucket
   scan. *)
let recompute_min t =
  begin
    (if t.near = 0 then begin
       t.cached_min <- t.far_min;
       t.min_slot <- -1
     end
     else begin
       let slot = first_bucket t in
       let i = min_in_bucket t slot in
       let keys = t.b_key.(slot) in
       let wt = keys.(2 * i) in
       if
         t.far_min < wt
         || (t.far_min = wt && far_wins_tie t keys.((2 * i) + 1))
       then begin
         t.cached_min <- t.far_min;
         t.min_slot <- -1
       end
       else begin
         t.cached_min <- wt;
         t.min_slot <- slot;
         t.min_idx <- i
       end
     end);
    t.min_ok <- true;
    t.cached_min
  end

(* Small enough for the classic (non-flambda) cross-module inliner, so
   the engine's per-wait probe is a load and a branch. *)
let min_time t = if t.min_ok then t.cached_min else recompute_min t

let peek_time t =
  let m = min_time t in
  if m = max_int then None else Some m

(* The engine's inner loop probes [min_time] (to test its horizon)
   right before popping, so the common pop takes the cached position
   with no rescan.  The key time goes to [popped_time], not into a
   returned tuple, so a pop runs once per event without boxing. *)
let pop t =
  if is_empty t then invalid_arg "Wheel.pop: empty queue";
  if not t.min_ok then ignore (recompute_min t : int);
  if t.min_slot >= 0 then take_from_bucket t t.min_slot t.min_idx
  else pop_far t

let popped_time t = t.popped_time
