(* Stride-6 compressed multibit trie (Poptrie / Tree-Bitmap family).

   Each node covers 6 address bits.  Prefixes whose length falls inside
   the node (relative length r = 0..5) live in the internal bitmap
   [ibm]: the prefix's top r chunk bits c give heap position
   pos = 2^r + (c >> (6-r)), numbered 1..63 and stored at bit (pos-1),
   so the whole internal set fits one 63-bit OCaml int.  Prefixes of
   relative length exactly 6 are leaves folded into the node (as in
   Poptrie, Asai & Ohara, SIGCOMM 2015): one bit per 6-bit chunk value
   in the leaf bitmap, split like the children's into [llo] (chunks
   0..31) and [lhi] (32..63), since 64 bits do not fit a native int.  A
   child node therefore exists only for prefixes longer than r = 6, and
   a /24 sits in its depth-18 node instead of a node of its own.
   Children hang off the external bitmap [elo]/[ehi], one bit per chunk
   value.  Values and children are packed into dense arrays ordered by
   bitmap rank — [ibm]'s values first, then the leaves' — so popcount
   of the bits below the one of interest indexes straight into the
   array, which is what keeps a million-route table at a few words per
   route.

   A lookup walks at most ceil(32/6) = 6 nodes.  At each node a set
   leaf bit for the address's chunk is the longest match there;
   otherwise one precomputed mask ANDed with [ibm] yields every internal
   prefix matching the address at once, and the most significant
   surviving bit is the longest.  The walk remembers the deepest node
   with a match and only materializes the winning entry at the end.

   Direct pointing: the top [jump_bits] address bits index a jump
   table that replays the skipped stride levels once per slot, caching
   the node at depth [jump_bits] (if any) and the best match among the
   shallower levels — lengths up to [jump_bits] itself, since a /18 is
   a leaf of the depth-12 node, and the whole slot shares it.  The
   table (2^18 slots, 2 MB) pays only when a lookup can reach depth
   [jump_bits], so it exists exactly while some node sits there: it is
   allocated when the first depth-18 node is created and dropped when
   [remove] prunes the last one.  Without it a lookup walks from the
   root, at most 3 nodes, since every prefix up to /18 lives at depth
   12 or above.  Whether it exists depends only on the trie's shape,
   never on lookups.  Slots fill lazily on the first lookup through
   them; every add/remove clears the slots its prefix covers — one slot
   when the prefix is at least [jump_bits] long, a power-of-two range
   otherwise — so a slot can never go stale.

   Values are next-hop indices, 0..65535, as in Poptrie's own FIB: a
   node's values are one [Bytes.t] of little-endian uint16s, two bytes
   a value where a pointer array spends eight, and the caller resolves
   an index through its own small next-hop table (see {!Table}). *)

type node = {
  mutable ibm : int; (* internal prefixes, heap positions 1..63 *)
  mutable llo : int; (* leaf prefixes of length depth+6, chunks 0..31 *)
  mutable lhi : int; (* leaf prefixes, chunks 32..63 *)
  mutable ivals : Bytes.t; (* uint16s, rank-ordered: ibm's, then leaves' *)
  mutable elo : int; (* children bitmap, chunks 0..31 *)
  mutable ehi : int; (* children bitmap, chunks 32..63 *)
  mutable children : node array; (* rank-ordered *)
}

type jslot =
  | Unset
  | Jump of { jnode : node option; jbest : (Prefix.t * int) option }

type t = {
  root : node;
  mutable count : int;
  mutable deep : int; (* nodes at depth [jump_bits] *)
  mutable jump : jslot array; (* [||] exactly while [deep = 0] *)
}

let max_value = 0xFFFF

(* The value array's accessors, [i] counting values, not bytes.  They
   stay in this module: the dev build compiles with [-opaque], so a
   cross-module accessor would be a call per lookup. *)
let get_val b i = Bytes.get_uint16_le b (2 * i)
let set_val b i v = Bytes.set_uint16_le b (2 * i) v

(* Must sit on the stride grid: the cached node lives at this depth. *)
let jump_bits = 18

(* 16-bit-table popcount: OCaml has no popcnt primitive and a 64-bit
   SWAR constant overflows the 63-bit native int. *)
let pc16 =
  let b = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec cnt x acc = if x = 0 then acc else cnt (x lsr 1) (acc + (x land 1)) in
    Bytes.unsafe_set b i (Char.unsafe_chr (cnt i 0))
  done;
  b

let pc x =
  Char.code (Bytes.unsafe_get pc16 (x land 0xFFFF))
  + Char.code (Bytes.unsafe_get pc16 ((x lsr 16) land 0xFFFF))
  + Char.code (Bytes.unsafe_get pc16 ((x lsr 32) land 0xFFFF))
  + Char.code (Bytes.unsafe_get pc16 (x lsr 48))

(* The child bitmaps are 32 bits wide, so two table probes suffice. *)
let pc32 x =
  Char.code (Bytes.unsafe_get pc16 (x land 0xFFFF))
  + Char.code (Bytes.unsafe_get pc16 (x lsr 16))

(* Index of the highest set bit; requires x > 0. *)
let msb x =
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then (
    r := !r + 32;
    x := !x lsr 32);
  if !x lsr 16 <> 0 then (
    r := !r + 16;
    x := !x lsr 16);
  if !x lsr 8 <> 0 then (
    r := !r + 8;
    x := !x lsr 8);
  if !x lsr 4 <> 0 then (
    r := !r + 4;
    x := !x lsr 4);
  if !x lsr 2 <> 0 then (
    r := !r + 2;
    x := !x lsr 2);
  if !x lsr 1 <> 0 then incr r;
  !r

(* match_masks.(c) has a bit at every heap position whose prefix covers
   chunk value c: positions 2^r + (c >> (6-r)) for r = 0..5. *)
let match_masks =
  Array.init 64 (fun c ->
      let m = ref 0 in
      for r = 0 to 5 do
        let pos = (1 lsl r) lor (c lsr (6 - r)) in
        m := !m lor (1 lsl (pos - 1))
      done;
      !m)

let u32 a = Int32.to_int a land 0xFFFFFFFF

(* The 6 address bits starting at depth d, MSB-first.  Depths past 26
   shift the address up so the final partial chunk is left-aligned with
   zero fill, matching how canonical prefixes clear host bits. *)
let chunk u d = if d <= 26 then (u lsr (26 - d)) land 63 else (u lsl (d - 26)) land 63

let empty_node () =
  {
    ibm = 0;
    llo = 0;
    lhi = 0;
    ivals = Bytes.empty;
    elo = 0;
    ehi = 0;
    children = [||];
  }

let create () = { root = empty_node (); count = 0; deep = 0; jump = [||] }

let is_empty t = t.count = 0
let size t = t.count

(* Chunk-indexed 64-bit maps (leaves, children) are split into 32-bit
   halves [lo] (chunks 0..31) and [hi] (32..63). *)
let has_bit lo hi i =
  if i < 32 then lo land (1 lsl i) <> 0 else hi land (1 lsl (i - 32)) <> 0

(* How many set bits precede bit i. *)
let bit_rank lo hi i =
  if i < 32 then pc32 (lo land ((1 lsl i) - 1))
  else pc32 lo + pc32 (hi land ((1 lsl (i - 32)) - 1))

let has_child n i = has_bit n.elo n.ehi i
let child_rank n i = bit_rank n.elo n.ehi i
let has_leaf n i = has_bit n.llo n.lhi i

(* Leaf values are ranked after the internal prefixes' values. *)
let leaf_rank n i = pc n.ibm + bit_rank n.llo n.lhi i

let flip_child n i =
  if i < 32 then n.elo <- n.elo lxor (1 lsl i)
  else n.ehi <- n.ehi lxor (1 lsl (i - 32))

let flip_leaf n i =
  if i < 32 then n.llo <- n.llo lxor (1 lsl i)
  else n.lhi <- n.lhi lxor (1 lsl (i - 32))

let holds_nothing n = n.ibm lor n.llo lor n.lhi lor n.elo lor n.ehi = 0

(* Drop every jump slot the prefix covers.  Canonical prefixes have
   zero host bits, so the first covered slot is just the shifted
   address.  No table, nothing to drop. *)
let invalidate t p =
  if Array.length t.jump > 0 then begin
    let len = Prefix.length p in
    let base = Prefix.bits p lsr (32 - jump_bits) in
    if len >= jump_bits then t.jump.(base) <- Unset
    else
      for i = base to base + (1 lsl (jump_bits - len)) - 1 do
        t.jump.(i) <- Unset
      done
  end

let arr_insert a i v =
  let n = Array.length a in
  let b = Array.make (n + 1) v in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let arr_remove a i =
  let n = Array.length a in
  if n = 1 then [||]
  else begin
    let b = Array.make (n - 1) a.(0) in
    Array.blit a 0 b 0 i;
    Array.blit a (i + 1) b i (n - 1 - i);
    b
  end

(* The same splices over a value array; the last removal returns the
   shared empty block. *)
let vals_insert a i v =
  let n = Bytes.length a and o = 2 * i in
  let b = Bytes.create (n + 2) in
  Bytes.blit a 0 b 0 o;
  set_val b i v;
  Bytes.blit a o b (o + 2) (n - o);
  b

let vals_remove a i =
  let n = Bytes.length a and o = 2 * i in
  if n = 2 then Bytes.empty
  else begin
    let b = Bytes.create (n - 2) in
    Bytes.blit a 0 b 0 o;
    Bytes.blit a (o + 2) b o (n - o - 2);
    b
  end

(* Where a prefix lives: the walk descends while the prefix is more
   than 6 bits longer than the node's depth d, so a prefix stops at the
   node with r = len - d in 1..6 (0 only for the root's /0).  r < 6 is
   heap position 2^r + (chunk >> (6-r)) in [ibm]; r = 6 is the chunk's
   bit in the leaf map. *)
let heap_bit u d r = 1 lsl (((1 lsl r) lor (chunk u d lsr (6 - r))) - 1)

let add t p v =
  if v < 0 || v > max_value then
    invalid_arg "Poptrie.add: value outside 0..65535";
  invalidate t p;
  let u = Prefix.bits p and len = Prefix.length p in
  let rec go node d =
    let r = len - d in
    if r = 6 then begin
      let c = chunk u d in
      let rank = leaf_rank node c in
      if has_leaf node c then set_val node.ivals rank v
      else begin
        flip_leaf node c;
        node.ivals <- vals_insert node.ivals rank v;
        t.count <- t.count + 1
      end
    end
    else if r < 6 then begin
      let bit = heap_bit u d r in
      let rank = pc (node.ibm land (bit - 1)) in
      if node.ibm land bit <> 0 then set_val node.ivals rank v
      else begin
        node.ibm <- node.ibm lor bit;
        node.ivals <- vals_insert node.ivals rank v;
        t.count <- t.count + 1
      end
    end
    else begin
      let i = chunk u d in
      let child =
        if has_child node i then node.children.(child_rank node i)
        else begin
          let ch = empty_node () in
          node.children <- arr_insert node.children (child_rank node i) ch;
          flip_child node i;
          if d + 6 = jump_bits then begin
            t.deep <- t.deep + 1;
            if t.deep = 1 then t.jump <- Array.make (1 lsl jump_bits) Unset
          end;
          ch
        end
      in
      go child (d + 6)
    end
  in
  go t.root 0

let remove t p =
  invalidate t p;
  let u = Prefix.bits p and len = Prefix.length p in
  let rec go node d =
    let r = len - d in
    if r = 6 then begin
      let c = chunk u d in
      if not (has_leaf node c) then false
      else begin
        node.ivals <- vals_remove node.ivals (leaf_rank node c);
        flip_leaf node c;
        t.count <- t.count - 1;
        true
      end
    end
    else if r < 6 then begin
      let bit = heap_bit u d r in
      if node.ibm land bit = 0 then false
      else begin
        let rank = pc (node.ibm land (bit - 1)) in
        node.ibm <- node.ibm lxor bit;
        node.ivals <- vals_remove node.ivals rank;
        t.count <- t.count - 1;
        true
      end
    end
    else begin
      let i = chunk u d in
      if not (has_child node i) then false
      else begin
        let rank = child_rank node i in
        let ch = node.children.(rank) in
        let removed = go ch (d + 6) in
        if removed && holds_nothing ch then begin
          node.children <- arr_remove node.children rank;
          flip_child node i;
          if d + 6 = jump_bits then begin
            t.deep <- t.deep - 1;
            if t.deep = 0 then t.jump <- [||]
          end
        end;
        removed
      end
    end
  in
  ignore (go t.root 0)

let find t p =
  let u = Prefix.bits p and len = Prefix.length p in
  let rec go node d =
    let r = len - d in
    if r = 6 then
      let c = chunk u d in
      if has_leaf node c then Some (get_val node.ivals (leaf_rank node c))
      else None
    else if r < 6 then
      let bit = heap_bit u d r in
      if node.ibm land bit = 0 then None
      else Some (get_val node.ivals (pc (node.ibm land (bit - 1))))
    else
      let i = chunk u d in
      if has_child node i then go node.children.(child_rank node i) (d + 6)
      else None
  in
  go t.root 0

(* What a node contributes to a lookup of chunk c: [-1] when c's leaf
   is set (length d+6, longer than anything in [ibm]), else the
   intersection of [ibm] with c's match mask (0 = nothing).  An
   intersection has at most 6 bits set, so it is never [-1]; it may be
   negative, since heap position 63 is the native int's sign bit. *)
let hits_at node c =
  if has_leaf node c then -1 else node.ibm land Array.unsafe_get match_masks c

(* The value of the longest match in [node] at depth [d], given its
   [hits_at] (non-zero).  Heap positions grow with relative length, so
   the most significant surviving bit of an intersection is the longest
   match in the node. *)
let value_at u node hits d =
  if hits = -1 then get_val node.ivals (leaf_rank node (chunk u d))
  else
    let pos = 1 + msb hits in
    get_val node.ivals (pc (node.ibm land ((1 lsl (pos - 1)) - 1)))

let binding_at u node hits d =
  let len = if hits = -1 then d + 6 else d + msb (1 + msb hits) in
  Some (Prefix.of_bits u len, value_at u node hits d)

(* The walk: descend from [node] at depth [d] along [u]'s path,
   remembering the deepest node with a match, and finish with
   [found u best_node best_hits best_d], or [default] when nothing on
   the way matched.  Only the finisher and the default differ between
   the two lookups, so the one that answers a bare value allocates
   nothing. *)
let rec walk u node d best_node best_hits best_d found default =
  let c = chunk u d in
  let hits = hits_at node c in
  (* Deeper matches beat shallower ones, so any non-empty intersection
     supersedes the best seen so far. *)
  let best_node, best_hits, best_d =
    if hits <> 0 then (node, hits, d) else (best_node, best_hits, best_d)
  in
  if has_child node c then
    walk u
      (Array.unsafe_get node.children (child_rank node c))
      (d + 6) best_node best_hits best_d found default
  else if best_hits = 0 then default
  else found u best_node best_hits best_d

(* Replay the levels above [jump_bits] for one slot.  The cached best
   match has length <= jump_bits (a leaf of the last replayed node
   reaches exactly jump_bits), so it only depends on address bits the
   whole slot shares. *)
let fill t u =
  let rec go node d bnode bhits bd =
    let c = chunk u d in
    let hits = hits_at node c in
    let bnode, bhits, bd =
      if hits <> 0 then (node, hits, d) else (bnode, bhits, bd)
    in
    if has_child node c && d + 6 < jump_bits then
      go
        (Array.unsafe_get node.children (child_rank node c))
        (d + 6) bnode bhits bd
    else
      let jnode =
        if has_child node c then
          Some (Array.unsafe_get node.children (child_rank node c))
        else None
      in
      let jbest = if bhits = 0 then None else binding_at u bnode bhits bd in
      Jump { jnode; jbest }
  in
  go t.root 0 t.root 0 0

(* [u]'s jump slot, filled on first use; only called while the table
   exists. *)
let slot t u =
  let j = u lsr (32 - jump_bits) in
  match Array.unsafe_get t.jump j with
  | Unset ->
      let s = fill t u in
      Array.unsafe_set t.jump j s;
      s
  | s -> s

(* Without a table the walk starts at the root; with one, at the slot's
   depth-[jump_bits] node, falling back to the slot's shallower best. *)
let lookup_or t k ~default =
  let u = k land 0xFFFFFFFF in
  if Array.length t.jump = 0 then walk u t.root 0 t.root 0 0 value_at default
  else
    match slot t u with
    | Unset -> default (* unreachable: fill never returns Unset *)
    | Jump { jnode; jbest } -> (
        let default = match jbest with Some (_, v) -> v | None -> default in
        match jnode with
        | Some n -> walk u n jump_bits n 0 0 value_at default
        | None -> default)

let lookup t a =
  let u = u32 a in
  if Array.length t.jump = 0 then walk u t.root 0 t.root 0 0 binding_at None
  else
    match slot t u with
    | Unset -> None (* unreachable: fill never returns Unset *)
    | Jump { jnode = Some n; jbest } ->
        walk u n jump_bits n 0 0 binding_at jbest
    | Jump { jnode = None; jbest } -> jbest

let bindings t =
  let acc = ref [] in
  let rec go node d path =
    let ib = ref node.ibm in
    while !ib <> 0 do
      let bitpos = msb !ib in
      ib := !ib lxor (1 lsl bitpos);
      let pos = bitpos + 1 in
      let r = msb pos in
      let bits = pos - (1 lsl r) in
      let len = d + r in
      let addr = if len = 0 then 0 else path lor (bits lsl (32 - len)) in
      let rank = pc (node.ibm land ((1 lsl bitpos) - 1)) in
      acc := (Prefix.of_bits addr len, get_val node.ivals rank) :: !acc
    done;
    for i = 0 to 63 do
      if has_leaf node i then
        acc :=
          ( Prefix.of_bits (path lor (i lsl (26 - d))) (d + 6),
            get_val node.ivals (leaf_rank node i) )
          :: !acc;
      if has_child node i then
        go node.children.(child_rank node i) (d + 6) (path lor (i lsl (26 - d)))
    done
  in
  go t.root 0 0;
  !acc

let node_count t =
  let rec go n = Array.fold_left (fun a c -> a + go c) 1 n.children in
  go t.root

let depth t a =
  let u = u32 a in
  let rec go node d steps =
    let c = chunk u d in
    if has_child node c then go node.children.(child_rank node c) (d + 6) (steps + 1)
    else steps
  in
  go t.root 0 1
