(* Tuple-space multi-field classification with a flow cache that rule
   writes invalidate selectively.  See classifier.mli for the design. *)

type action = Accept | Drop | Forward of int | Mark of int

type rule = {
  prio : int;
  src : Packet.Ipv4.addr;
  src_len : int;
  dst : Packet.Ipv4.addr;
  dst_len : int;
  src_port : int option;
  dst_port : int option;
  proto : int option;
  dscp : int option;
  act : action;
}

let mask_addr addr len =
  if len <= 0 then 0l
  else if len >= 32 then addr
  else Int32.logand addr (Int32.shift_left (-1l) (32 - len))

let rule ?(prio = 100) ?(src = (0l, 0)) ?(dst = (0l, 0)) ?src_port ?dst_port
    ?proto ?dscp act =
  let src_addr, src_len = src and dst_addr, dst_len = dst in
  if src_len < 0 || src_len > 32 || dst_len < 0 || dst_len > 32 then
    invalid_arg "Classifier.rule: prefix length";
  {
    prio;
    src = mask_addr src_addr src_len;
    src_len;
    dst = mask_addr dst_addr dst_len;
    dst_len;
    src_port;
    dst_port;
    proto;
    dscp;
    act;
  }

let field_ok opt v = match opt with None -> true | Some x -> x = v

let matches r (k : Packet.Flow.five) =
  mask_addr k.f_src r.src_len = r.src
  && mask_addr k.f_dst r.dst_len = r.dst
  && field_ok r.src_port k.f_src_port
  && field_ok r.dst_port k.f_dst_port
  && field_ok r.proto k.f_proto
  && field_ok r.dscp k.f_dscp

(* Priority, then specificity (total matched bits, more specific first),
   then canonical content — every component is derived from the rule
   itself, so the order has no insertion-sequence ingredient. *)
let specificity r =
  r.src_len + r.dst_len
  + (match r.src_port with Some _ -> 16 | None -> 0)
  + (match r.dst_port with Some _ -> 16 | None -> 0)
  + (match r.proto with Some _ -> 8 | None -> 0)
  + match r.dscp with Some _ -> 6 | None -> 0

(* [compare_rule] on precomputed order keys [(prio, specificity)]: two
   int compares, and the canonical-content compare only on an exact
   tie. *)
let compare_keyed a_prio a_spec (a : rule) b_prio b_spec (b : rule) =
  if a_prio <> b_prio then compare (a_prio : int) b_prio
  else if a_spec <> b_spec then compare (b_spec : int) a_spec
  else Stdlib.compare a b

let compare_rule a b =
  compare_keyed a.prio (specificity a) a b.prio (specificity b) b

(* --- packed keys ---------------------------------------------------------

   A key packs into two native ints, [hi = src:32|sport:16] and
   [lo = dst:32|dport:16|proto:8|dscp:6] (62 bits, so never negative).
   Masking a key for a tuple is then two [land]s with the tuple's
   precomputed masks, and a probe compares two ints.  Packing is
   injective only while every field fits its wire width, so [lookup]
   refuses wider keys and [add] wider rules. *)

let u32 (a : Packet.Ipv4.addr) = Int32.to_int a land 0xFFFF_FFFF
let pack_hi src sport = (src lsl 16) lor sport

let pack_lo dst dport proto dscp =
  (dst lsl 30) lor (dport lsl 14) lor (proto lsl 6) lor dscp

let key_in_width (k : Packet.Flow.five) =
  (k.f_src_port lor k.f_dst_port) lsr 16 = 0
  && k.f_proto lsr 8 = 0
  && k.f_dscp lsr 6 = 0

let key_hi (k : Packet.Flow.five) = pack_hi (u32 k.f_src) k.f_src_port

let key_lo (k : Packet.Flow.five) =
  pack_lo (u32 k.f_dst) k.f_dst_port k.f_proto k.f_dscp

let opt_in_width bits = function None -> true | Some v -> v lsr bits = 0
let opt_value = function None -> 0 | Some v -> v

let rule_in_width r =
  r.src_len >= 0 && r.src_len <= 32 && r.dst_len >= 0 && r.dst_len <= 32
  && opt_in_width 16 r.src_port
  && opt_in_width 16 r.dst_port
  && opt_in_width 8 r.proto && opt_in_width 6 r.dscp

(* The rule's own field values, unmasked: a rule built by hand with host
   bits below its prefix length packs outside the tuple's masks and so,
   exactly as [matches] says, matches nothing. *)
let rule_hi r = pack_hi (u32 r.src) (opt_value r.src_port)

let rule_lo r =
  pack_lo (u32 r.dst) (opt_value r.dst_port) (opt_value r.proto)
    (opt_value r.dscp)

let addr_mask len =
  if len = 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

let exact field bits = if Option.is_some field then (1 lsl bits) - 1 else 0

(* Multiply-xorshift over both halves; the table index is its low bits. *)
let hash hi lo =
  let h = (hi * 0x2545F4914F6CDD1D) + lo in
  let h = (h lxor (h lsr 32)) * 0x1B873593A2C4E6B5 in
  h lxor (h lsr 29)

(* --- tuples --------------------------------------------------------------

   A tuple is one mask combination.  Its table is open-addressed with
   linear probing.  Slot [i] keeps its masked key in [t_keys] ([hi] at
   [2i], [lo] at [2i + 1], so a probe that misses reads one cache line)
   and the bucket of rules sharing that key in [t_bucket].  [t_head.(i)]
   is the bucket's best rule, already wrapped in the option [lookup]
   returns, so a probe hands back a preallocated value. *)

(* Marks a free slot's [hi]; a packed [hi] is never negative. *)
let free = -1

(* The fields a probe reads come first, so the walk reads the front of
   each tuple's record and no rule record. *)
type tuple = {
  hi_mask : int;
  lo_mask : int;
  spec : int;  (** {!specificity} of every rule of this shape *)
  mutable t_min_prio : int;  (** [t_min.prio] *)
  mutable t_keys : int array;
  mutable t_head : rule option array;  (** [None] in a free slot *)
  mutable t_min : rule;  (** best rule in this tuple *)
  code : int;  (** the mask shape: prefix lengths and exact fields *)
  mutable t_bucket : rule list array;  (** sorted by [compare_rule] *)
  mutable t_used : int;  (** occupied slots *)
  mutable t_rules : int;
}

let tuple_code r =
  let bit b v = if Option.is_some b then v else 0 in
  (r.src_len lsl 10) lor (r.dst_len lsl 4) lor bit r.src_port 8
  lor bit r.dst_port 4 lor bit r.proto 2 lor bit r.dscp 1

let new_tuple r =
  let slots = 8 in
  {
    hi_mask = pack_hi (addr_mask r.src_len) (exact r.src_port 16);
    lo_mask =
      pack_lo (addr_mask r.dst_len) (exact r.dst_port 16) (exact r.proto 8)
        (exact r.dscp 6);
    spec = specificity r;
    t_min_prio = r.prio;
    t_keys = Array.make (2 * slots) free;
    t_head = Array.make slots None;
    t_min = r;
    code = tuple_code r;
    t_bucket = Array.make slots [];
    t_used = 0;
    t_rules = 0;
  }

let set_min tb r =
  tb.t_min <- r;
  tb.t_min_prio <- r.prio

(* The slot holding [(hi, lo)], or the free slot that ends its run. *)
let rec slot_from keys hi lo mask i =
  let h = keys.(2 * i) in
  if h = free || (h = hi && keys.((2 * i) + 1) = lo) then i
  else slot_from keys hi lo mask ((i + 1) land mask)

let find_slot tb hi lo =
  let mask = Array.length tb.t_head - 1 in
  slot_from tb.t_keys hi lo mask (hash hi lo land mask)

(* The probe proper: the bucket's best rule, or [None]. *)
let probe tb hi lo = tb.t_head.(find_slot tb hi lo)

let set_slot tb i hi lo head bucket =
  tb.t_keys.(2 * i) <- hi;
  tb.t_keys.((2 * i) + 1) <- lo;
  tb.t_head.(i) <- head;
  tb.t_bucket.(i) <- bucket

let grow_tuple tb =
  let keys = tb.t_keys and head = tb.t_head and bucket = tb.t_bucket in
  let n = 2 * Array.length head in
  tb.t_keys <- Array.make (2 * n) free;
  tb.t_head <- Array.make n None;
  tb.t_bucket <- Array.make n [];
  Array.iteri
    (fun j h ->
      if Option.is_some h then begin
        let hi = keys.(2 * j) and lo = keys.((2 * j) + 1) in
        set_slot tb (find_slot tb hi lo) hi lo h bucket.(j)
      end)
    head

(* Backward-shift deletion: walk the run after the freed [hole] and pull
   back every entry whose home slot does not lie cyclically in
   [(hole, j]], so no probe run ever crosses a free slot. *)
let rec close_hole tb mask hole j =
  let j = (j + 1) land mask in
  let hi = tb.t_keys.(2 * j) and lo = tb.t_keys.((2 * j) + 1) in
  if hi = free then set_slot tb hole free 0 None []
  else if (j - (hash hi lo land mask)) land mask >= (j - hole) land mask
  then begin
    set_slot tb hole hi lo tb.t_head.(j) tb.t_bucket.(j);
    close_hole tb mask j j
  end
  else close_hole tb mask hole j

let delete_slot tb i =
  close_hole tb (Array.length tb.t_head - 1) i i;
  tb.t_used <- tb.t_used - 1

(* [compare_rule] between the best rule of [tb] and a rule [b] whose
   precomputed order key is [(b_prio, b_spec)]: two int compares, and
   the canonical-content compare only on an exact tie. *)
let compare_min tb b_prio b_spec b =
  compare_keyed tb.t_min_prio tb.spec tb.t_min b_prio b_spec b

type t = {
  by_code : (int, tuple) Hashtbl.t;
  mutable tuples : tuple list;  (** sorted by (t_min, code) *)
  mutable rules : int;
  (* The flow cache: open-addressed, keyed by the packed pair.  A slot
     is occupied iff its stored epoch is the current [epoch], so a flush
     is one increment.  Entries are never deleted otherwise: a rule write
     marks the entries it may have changed {!stale}, and a stale one is
     rewritten in place by its next miss. *)
  mutable c_keys : int array;
  mutable c_rule : rule option array;
  mutable c_count : int;  (** occupied slots, stale ones included *)
  mutable epoch : int;
  cache_capacity : int;
  (* Batch-span memo: within one context activation (an open
     [Sim.Engine] batch span) bursts are strongly flow-local, so the
     previous frame's decision usually answers the next frame too.  The
     memo is a single (span, key, rule) triple checked before the flow
     cache — a hit skips even the cache's hash probe.  Validity is span
     identity (a real suspension breaks the span, so nothing can have
     interleaved); a rule write empties the memo. *)
  mutable memo_span : int;  (** 0 = memo empty / outside any span *)
  mutable memo_hi : int;
  mutable memo_lo : int;
  mutable memo_rule : rule option;
  hits : Sim.Stats.Counter.t;
  misses : Sim.Stats.Counter.t;
  flushes : Sim.Stats.Counter.t;
  probe_count : Sim.Stats.Counter.t;
  memo_hits : Sim.Stats.Counter.t;
}

let cache_slots = 512

let create ?(cache_capacity = 4096) () =
  if cache_capacity < 1 then invalid_arg "Classifier.create: cache_capacity";
  {
    by_code = Hashtbl.create 64;
    tuples = [];
    rules = 0;
    c_keys = Array.make (3 * cache_slots) 0;
    c_rule = Array.make cache_slots None;
    c_count = 0;
    epoch = 1;
    cache_capacity;
    memo_span = 0;
    memo_hi = 0;
    memo_lo = 0;
    memo_rule = None;
    hits = Sim.Stats.Counter.create "classifier.cache_hit";
    misses = Sim.Stats.Counter.create "classifier.cache_miss";
    flushes = Sim.Stats.Counter.create "classifier.cache_flush";
    probe_count = Sim.Stats.Counter.create "classifier.probes";
    memo_hits = Sim.Stats.Counter.create "classifier.mf_batch_memo_hits";
  }

let compare_tuple a b =
  let c = compare_min a b.t_min_prio b.spec b.t_min in
  if c <> 0 then c else Int.compare a.code b.code

(* [t.tuples] stays sorted by [compare_tuple] across writes without a
   re-sort: a write moves at most the one tuple that was created, whose
   minimum changed, or that emptied.  [compare_tuple] is a strict total
   order ([code] breaks ties), so the result is the sorted list. *)
let rec insert_sorted tbl = function
  | x :: rest when compare_tuple x tbl < 0 -> x :: insert_sorted tbl rest
  | l -> tbl :: l

let unlink t tbl = t.tuples <- List.filter (fun x -> x != tbl) t.tuples

let reposition t tbl =
  unlink t tbl;
  t.tuples <- insert_sorted tbl t.tuples

let bucket_min tb =
  Array.fold_left
    (fun acc head ->
      match (head, acc) with
      | None, _ -> acc
      | Some _, None -> head
      | Some r, Some m -> if compare_rule r m < 0 then head else acc)
    None tb.t_head
  |> Option.get

(* Store a non-empty sorted bucket, rewrapping its head only when the
   best rule changed. *)
let set_bucket tb i bucket =
  tb.t_bucket.(i) <- bucket;
  let h = List.hd bucket in
  match tb.t_head.(i) with
  | Some x when x == h -> ()
  | _ -> tb.t_head.(i) <- Some h

(* Flow-cache slot [i] keeps [hi; lo; epoch] at [3i .. 3i + 2] of
   [c_keys], and its answer in [c_rule.(i)].  [stale] is the answer of
   an entry a rule write may have changed: it is never returned, and a
   lookup that finds it misses and rewrites it. *)
let stale : rule option = Some (rule Accept)

(* A write of rule [r] (of tuple [tb]) can change the answer only for
   keys [r] matches: an add for any of them, a remove for those whose
   answer was [r].  So only the cached keys that [r]'s masks map onto
   its own packed value go stale.  A write into an empty cache costs
   nothing. *)
let invalidate t tb r =
  t.memo_span <- 0;
  if t.c_count > 0 then begin
    let keys = t.c_keys and answers = t.c_rule and epoch = t.epoch in
    let hi = rule_hi r and lo = rule_lo r in
    let hi_mask = tb.hi_mask and lo_mask = tb.lo_mask in
    for i = 0 to Array.length answers - 1 do
      let s = 3 * i in
      if
        keys.(s) land hi_mask = hi
        && keys.(s + 1) land lo_mask = lo
        && keys.(s + 2) = epoch
      then answers.(i) <- stale
    done
  end

let add t r =
  if not (rule_in_width r) then
    invalid_arg "Classifier.add: rule field exceeds its wire width";
  let code = tuple_code r in
  let tb, fresh =
    match Hashtbl.find_opt t.by_code code with
    | Some tb -> (tb, false)
    | None ->
        let tb = new_tuple r in
        Hashtbl.add t.by_code code tb;
        (tb, true)
  in
  if 2 * (tb.t_used + 1) > Array.length tb.t_head then grow_tuple tb;
  let hi = rule_hi r and lo = rule_lo r in
  let i = find_slot tb hi lo in
  let bucket = tb.t_bucket.(i) in
  if not (List.exists (fun x -> compare_rule x r = 0) bucket) then begin
    if bucket = [] then begin
      set_slot tb i hi lo (Some r) [ r ];
      tb.t_used <- tb.t_used + 1
    end
    else set_bucket tb i (List.sort compare_rule (r :: bucket));
    tb.t_rules <- tb.t_rules + 1;
    t.rules <- t.rules + 1;
    if fresh then t.tuples <- insert_sorted tb t.tuples
    else if compare_rule tb.t_min r > 0 then begin
      set_min tb r;
      reposition t tb
    end;
    invalidate t tb r
  end

let remove t r =
  rule_in_width r
  &&
  match Hashtbl.find_opt t.by_code (tuple_code r) with
  | None -> false
  | Some tb ->
      let i = find_slot tb (rule_hi r) (rule_lo r) in
      let bucket = tb.t_bucket.(i) in
      if List.exists (fun x -> compare_rule x r = 0) bucket then begin
        (match List.filter (fun x -> compare_rule x r <> 0) bucket with
        | [] -> delete_slot tb i
        | bucket -> set_bucket tb i bucket);
        tb.t_rules <- tb.t_rules - 1;
        t.rules <- t.rules - 1;
        if tb.t_rules = 0 then begin
          Hashtbl.remove t.by_code tb.code;
          unlink t tb
        end
        else if compare_rule tb.t_min r = 0 then begin
          set_min tb (bucket_min tb);
          reposition t tb
        end;
        invalidate t tb r;
        true
      end
      else false

(* The pruned tuple walk.  Tuples are sorted by their best rule, so once
   [best] (order key [(b_prio, b_spec)]) beats the next tuple's minimum
   no remaining tuple can improve the answer.  Every value it returns is
   a preallocated [t_head] option, so the walk allocates nothing. *)
let rec walk t hi lo best b_prio b_spec = function
  | [] -> best
  | tb :: rest -> (
      match best with
      | Some b when compare_min tb b_prio b_spec b >= 0 -> best
      | _ -> (
          Sim.Stats.Counter.incr t.probe_count;
          match probe tb (hi land tb.hi_mask) (lo land tb.lo_mask) with
          | Some r as cand
            when match best with
                 | None -> true
                 | Some b ->
                     compare_keyed r.prio tb.spec r b_prio b_spec b < 0 ->
              walk t hi lo cand r.prio tb.spec rest
          | _ -> walk t hi lo best b_prio b_spec rest))

let search t hi lo = walk t hi lo None 0 0 t.tuples

let rec cache_slot_from keys epoch hi lo mask i =
  let s = 3 * i in
  if keys.(s + 2) <> epoch || (keys.(s) = hi && keys.(s + 1) = lo) then i
  else cache_slot_from keys epoch hi lo mask ((i + 1) land mask)

let cache_slot t hi lo =
  let mask = Array.length t.c_rule - 1 in
  cache_slot_from t.c_keys t.epoch hi lo mask (hash hi lo land mask)

let grow_cache t =
  let keys = t.c_keys and rule = t.c_rule in
  let n = 2 * Array.length rule in
  t.c_keys <- Array.make (3 * n) 0;
  t.c_rule <- Array.make n None;
  for j = 0 to Array.length rule - 1 do
    let s = 3 * j in
    if keys.(s + 2) = t.epoch then begin
      let i = cache_slot t keys.(s) keys.(s + 1) in
      Array.blit keys s t.c_keys (3 * i) 3;
      t.c_rule.(i) <- rule.(j)
    end
  done

let lookup_packed t hi lo =
  let i = cache_slot t hi lo in
  let keys = t.c_keys and cached = t.c_rule.(i) in
  if keys.((3 * i) + 2) = t.epoch && cached != stale then begin
    Sim.Stats.Counter.incr t.hits;
    cached
  end
  else begin
    Sim.Stats.Counter.incr t.misses;
    let r = search t hi lo in
    (* A miss flushes a full cache before inserting, whether or not the
       key holds a stale entry. *)
    if t.c_count >= t.cache_capacity then begin
      t.epoch <- t.epoch + 1;
      t.c_count <- 0;
      Sim.Stats.Counter.incr t.flushes
    end;
    let i =
      if keys.((3 * i) + 2) = t.epoch then i
      else begin
        if 2 * (t.c_count + 1) > Array.length t.c_rule then grow_cache t;
        let i = cache_slot t hi lo in
        t.c_keys.(3 * i) <- hi;
        t.c_keys.((3 * i) + 1) <- lo;
        t.c_keys.((3 * i) + 2) <- t.epoch;
        t.c_count <- t.c_count + 1;
        i
      end
    in
    t.c_rule.(i) <- r;
    r
  end

let check_key fn k =
  if not (key_in_width k) then
    invalid_arg ("Classifier." ^ fn ^ ": key field exceeds its wire width")

let lookup t k =
  check_key "lookup" k;
  lookup_packed t (key_hi k) (key_lo k)

let lookup_span_packed t span hi lo =
  if
    span <> 0 && span = t.memo_span && t.memo_hi = hi && t.memo_lo = lo
  then begin
    Sim.Stats.Counter.incr t.memo_hits;
    t.memo_rule
  end
  else begin
    let r = lookup_packed t hi lo in
    t.memo_span <- span;
    t.memo_hi <- hi;
    t.memo_lo <- lo;
    t.memo_rule <- r;
    r
  end

let lookup_span t ~span k =
  check_key "lookup_span" k;
  lookup_span_packed t span (key_hi k) (key_lo k)

let lookup_linear t k =
  List.fold_left
    (fun acc tb ->
      Array.fold_left
        (List.fold_left (fun acc r ->
             if matches r k then
               match acc with
               | None -> Some r
               | Some b -> if compare_rule r b < 0 then Some r else acc
             else acc))
        acc tb.t_bucket)
    None t.tuples

let n_rules t = t.rules
let n_tuples t = List.length t.tuples
let cache_hits t = Sim.Stats.Counter.value t.hits
let cache_misses t = Sim.Stats.Counter.value t.misses
let cache_flushes t = Sim.Stats.Counter.value t.flushes
let probes t = Sim.Stats.Counter.value t.probe_count
let batch_memo_hits t = Sim.Stats.Counter.value t.memo_hits

let attach t scope =
  Telemetry.Scope.gauge_int scope "tuples" (fun () -> n_tuples t);
  Telemetry.Scope.gauge_int scope "rules" (fun () -> n_rules t);
  Telemetry.Scope.gauge_int scope "cache_entries" (fun () ->
      t.c_count);
  Telemetry.Scope.register_counter scope ~name:"cache_hit" t.hits;
  Telemetry.Scope.register_counter scope ~name:"cache_miss" t.misses;
  Telemetry.Scope.register_counter scope ~name:"cache_flush" t.flushes;
  Telemetry.Scope.register_counter scope ~name:"probes" t.probe_count;
  Telemetry.Scope.register_counter scope ~name:"mf_batch_memo_hits" t.memo_hits

let forwarder ?(max_probes = 4) ~(cm : Router.Cost_model.t) t =
  if max_probes < 1 then invalid_arg "Classifier.forwarder: max_probes";
  let code =
    [
      Router.Vrp.Instr (cm.mf_cache_instr + (max_probes * cm.mf_probe_instr));
      Router.Vrp.Hash;
      Router.Vrp.Sram_read (max_probes * cm.mf_probe_sram_bytes);
    ]
  in
  (* The key packs straight from the frame: every field read is within
     its wire width, so no [five] is built and no width check is due. *)
  let action ~state:_ frame ~in_port:_ =
    let base = Packet.Flow.ports_offset frame in
    if base < 0 then Router.Forwarder.Continue
    else begin
      let hi =
        pack_hi (Packet.Ipv4.get_src_i frame) (Packet.Frame.get_u16 frame base)
      and lo =
        pack_lo
          (Packet.Ipv4.get_dst_i frame)
          (Packet.Frame.get_u16 frame (base + 2))
          (Packet.Ipv4.get_proto frame) (Packet.Ipv4.dscp frame)
      in
      (* Inside a batch span consecutive frames of a burst share the
         activation — and usually the flow — so route through the span
         memo.  Outside any span [current_span] is 0 and the memo is
         bypassed. *)
      let span =
        match Sim.Engine.current_engine () with
        | Some e -> Sim.Engine.current_span e
        | None -> 0
      in
      match lookup_span_packed t span hi lo with
      | None | Some { act = Accept; _ } -> Router.Forwarder.Continue
      | Some { act = Drop; _ } -> Router.Forwarder.Drop
      | Some { act = Forward p; _ } -> Router.Forwarder.Forward p
      | Some { act = Mark d; _ } ->
          (* DSCP is TOS [7:2]; the ECN bits [1:0] (RFC 3168) stay. *)
          Packet.Ipv4.set_tos frame
            ((d lsl 2) lor (Packet.Ipv4.get_tos frame land 3));
          Packet.Ipv4.fill_cksum frame;
          Router.Forwarder.Continue
    end
  in
  Router.Forwarder.make ~name:"mf-classifier" ~code ~state_bytes:0 action

module Gen = struct
  let prefix_lens = [| 0; 8; 16; 24; 32 |]
  let service_ports = [| 80; 443; 53; 123; 25; 22; 8080; 5060 |]

  let gen_rule ~rng ~n_ports ~forward_share =
    let prefix () =
      (* Addresses live in 10.0.0.0/8 like the test topology's routed
         subnets, so generated rules actually intersect the workloads. *)
      let len = Sim.Rng.pick rng prefix_lens in
      let subnet = Sim.Rng.int rng 256 in
      let host = Sim.Rng.int rng 0x10000 in
      let raw =
        Int32.of_int ((10 lsl 24) lor (subnet lsl 16) lor host)
      in
      (mask_addr raw len, len)
    in
    let opt p v = if Sim.Rng.float rng 1.0 < p then Some (v ()) else None in
    let act =
      let u = Sim.Rng.float rng 1.0 in
      if u < forward_share then Forward (Sim.Rng.int rng n_ports)
      else if u < forward_share +. 0.25 then Drop
      else if u < forward_share +. 0.35 then Mark (Sim.Rng.int rng 64)
      else Accept
    in
    rule
      ~prio:(Sim.Rng.int rng 64)  (* few levels: force tie-breaks *)
      ~src:(prefix ()) ~dst:(prefix ())
      ?src_port:(opt 0.15 (fun () -> 1024 + Sim.Rng.int rng 60000))
      ?dst_port:(opt 0.4 (fun () -> Sim.Rng.pick rng service_ports))
      ?proto:
        (opt 0.3 (fun () ->
             if Sim.Rng.int rng 2 = 0 then Packet.Ipv4.proto_udp
             else Packet.Ipv4.proto_tcp))
      ?dscp:(opt 0.15 (fun () -> Sim.Rng.int rng 8 lsl 3))
      act

  let rules ~rng ~n ?(n_ports = 4) ?(forward_share = 0.25) () =
    let seen = Hashtbl.create (2 * n) in
    let rec grow acc k =
      if k = 0 then acc
      else
        let r = gen_rule ~rng ~n_ports ~forward_share in
        if Hashtbl.mem seen r then grow acc k
        else begin
          Hashtbl.add seen r ();
          grow (r :: acc) (k - 1)
        end
    in
    grow [] n
end
