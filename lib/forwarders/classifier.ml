(* Tuple-space multi-field classification with a generation-stamped flow
   cache.  See classifier.mli for the design. *)

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

let compare_rule (a : rule) (b : rule) =
  let c = compare a.prio b.prio in
  if c <> 0 then c
  else
    let c = compare (specificity b) (specificity a) in
    if c <> 0 then c else Stdlib.compare a b

(* A tuple is one mask combination; its table hashes the masked fields. *)
type tkey = {
  t_src_len : int;
  t_dst_len : int;
  t_sport : bool;
  t_dport : bool;
  t_proto : bool;
  t_dscp : bool;
}

type mkey = {
  m_src : Packet.Ipv4.addr;
  m_dst : Packet.Ipv4.addr;
  m_sport : int;
  m_dport : int;
  m_proto : int;
  m_dscp : int;
}

let tkey_of_rule r =
  {
    t_src_len = r.src_len;
    t_dst_len = r.dst_len;
    t_sport = r.src_port <> None;
    t_dport = r.dst_port <> None;
    t_proto = r.proto <> None;
    t_dscp = r.dscp <> None;
  }

let opt_field b v = if b then v else 0

let mkey_of_rule r =
  {
    m_src = r.src;
    m_dst = r.dst;
    m_sport = (match r.src_port with Some p -> p | None -> 0);
    m_dport = (match r.dst_port with Some p -> p | None -> 0);
    m_proto = (match r.proto with Some p -> p | None -> 0);
    m_dscp = (match r.dscp with Some d -> d | None -> 0);
  }

let mkey_of_five tk (k : Packet.Flow.five) =
  {
    m_src = mask_addr k.f_src tk.t_src_len;
    m_dst = mask_addr k.f_dst tk.t_dst_len;
    m_sport = opt_field tk.t_sport k.f_src_port;
    m_dport = opt_field tk.t_dport k.f_dst_port;
    m_proto = opt_field tk.t_proto k.f_proto;
    m_dscp = opt_field tk.t_dscp k.f_dscp;
  }

type tuple_tbl = {
  tkey : tkey;
  table : (mkey, rule list) Hashtbl.t;  (** buckets sorted by priority *)
  mutable t_rules : int;
  mutable t_min : rule option;  (** best-priority rule in this tuple *)
}

type cache_entry = { ce_gen : int; ce_rule : rule option }

type t = {
  by_tkey : (tkey, tuple_tbl) Hashtbl.t;
  mutable tuples : tuple_tbl list;  (** sorted by (t_min, tkey) *)
  mutable rules : int;
  mutable gen : int;
  cache : (Packet.Flow.five, cache_entry) Hashtbl.t;
  cache_capacity : int;
  (* Batch-span memo: within one context activation (an open
     [Sim.Engine] batch span) bursts are strongly flow-local, so the
     previous frame's decision usually answers the next frame too.  The
     memo is a single (span, key, rule) triple checked before the flow
     cache — a hit skips even the cache's hash probe.  Validity is the
     conjunction of span identity (a real suspension breaks the span, so
     nothing can have interleaved) and generation identity (rule churn
     invalidates it exactly like the cache). *)
  mutable memo_span : int;  (** 0 = memo empty / outside any span *)
  mutable memo_gen : int;
  mutable memo_key : Packet.Flow.five;
  mutable memo_rule : rule option;
  hits : Sim.Stats.Counter.t;
  misses : Sim.Stats.Counter.t;
  flushes : Sim.Stats.Counter.t;
  probe_count : Sim.Stats.Counter.t;
  memo_hits : Sim.Stats.Counter.t;
}

let dummy_five : Packet.Flow.five =
  {
    f_src = 0l;
    f_src_port = 0;
    f_dst = 0l;
    f_dst_port = 0;
    f_proto = 0;
    f_dscp = 0;
  }

let five_eq (a : Packet.Flow.five) (b : Packet.Flow.five) =
  Int32.equal a.f_src b.f_src
  && Int32.equal a.f_dst b.f_dst
  && a.f_src_port = b.f_src_port
  && a.f_dst_port = b.f_dst_port
  && a.f_proto = b.f_proto
  && a.f_dscp = b.f_dscp

let create ?(cache_capacity = 4096) () =
  if cache_capacity < 1 then invalid_arg "Classifier.create: cache_capacity";
  {
    by_tkey = Hashtbl.create 64;
    tuples = [];
    rules = 0;
    gen = 0;
    cache = Hashtbl.create 256;
    cache_capacity;
    memo_span = 0;
    memo_gen = 0;
    memo_key = dummy_five;
    memo_rule = None;
    hits = Sim.Stats.Counter.create "classifier.cache_hit";
    misses = Sim.Stats.Counter.create "classifier.cache_miss";
    flushes = Sim.Stats.Counter.create "classifier.cache_flush";
    probe_count = Sim.Stats.Counter.create "classifier.probes";
    memo_hits = Sim.Stats.Counter.create "classifier.mf_batch_memo_hits";
  }

let compare_tuple a b =
  match (a.t_min, b.t_min) with
  | Some x, Some y ->
      let c = compare_rule x y in
      if c <> 0 then c else Stdlib.compare a.tkey b.tkey
  | Some _, None -> -1
  | None, Some _ -> 1
  | None, None -> Stdlib.compare a.tkey b.tkey

(* [t.tuples] stays sorted by [compare_tuple] across writes without a
   re-sort: a write moves at most the one tuple that was created, whose
   minimum changed, or that emptied.  [compare_tuple] is a strict total
   order ([tkey] breaks ties), so the result is the sorted list. *)
let rec insert_sorted tbl = function
  | x :: rest when compare_tuple x tbl < 0 -> x :: insert_sorted tbl rest
  | l -> tbl :: l

let unlink t tbl = t.tuples <- List.filter (fun x -> x != tbl) t.tuples

let reposition t tbl =
  unlink t tbl;
  t.tuples <- insert_sorted tbl t.tuples

let bucket_min tbl =
  Hashtbl.fold
    (fun _ rules acc ->
      match (rules, acc) with
      | [], _ -> acc
      | r :: _, None -> Some r
      | r :: _, Some m -> if compare_rule r m < 0 then Some r else acc)
    tbl.table None

let invalidate t = t.gen <- t.gen + 1

let add t r =
  let tk = tkey_of_rule r in
  let tbl =
    match Hashtbl.find_opt t.by_tkey tk with
    | Some tbl -> tbl
    | None ->
        let tbl =
          { tkey = tk; table = Hashtbl.create 16; t_rules = 0; t_min = None }
        in
        Hashtbl.add t.by_tkey tk tbl;
        tbl
  in
  let mk = mkey_of_rule r in
  let bucket =
    match Hashtbl.find_opt tbl.table mk with Some b -> b | None -> []
  in
  if not (List.exists (fun x -> compare_rule x r = 0) bucket) then begin
    Hashtbl.replace tbl.table mk
      (List.sort compare_rule (r :: bucket));
    tbl.t_rules <- tbl.t_rules + 1;
    t.rules <- t.rules + 1;
    (match tbl.t_min with
    | Some m when compare_rule m r <= 0 -> ()
    | _ ->
        tbl.t_min <- Some r;
        reposition t tbl);
    invalidate t
  end

let remove t r =
  let tk = tkey_of_rule r in
  match Hashtbl.find_opt t.by_tkey tk with
  | None -> false
  | Some tbl -> (
      let mk = mkey_of_rule r in
      match Hashtbl.find_opt tbl.table mk with
      | None -> false
      | Some bucket ->
          if List.exists (fun x -> compare_rule x r = 0) bucket then begin
            let bucket =
              List.filter (fun x -> compare_rule x r <> 0) bucket
            in
            if bucket = [] then Hashtbl.remove tbl.table mk
            else Hashtbl.replace tbl.table mk bucket;
            tbl.t_rules <- tbl.t_rules - 1;
            t.rules <- t.rules - 1;
            if tbl.t_rules = 0 then begin
              Hashtbl.remove t.by_tkey tk;
              unlink t tbl
            end
            else begin
              match tbl.t_min with
              | Some m when compare_rule m r = 0 ->
                  tbl.t_min <- bucket_min tbl;
                  reposition t tbl
              | _ -> ()
            end;
            invalidate t;
            true
          end
          else false)

let best_in_bucket tbl mk =
  match Hashtbl.find_opt tbl.table mk with
  | None | Some [] -> None
  | Some (r :: _) -> Some r

let search t k =
  (* Tuples are sorted by their best rule, so once [best] beats the next
     tuple's minimum no remaining tuple can improve the answer. *)
  let rec walk best = function
    | [] -> best
    | tbl :: rest -> (
        let prune =
          match (best, tbl.t_min) with
          | Some b, Some m -> compare_rule b m <= 0
          | _, None -> true
          | None, Some _ -> false
        in
        if prune then best
        else begin
          Sim.Stats.Counter.incr t.probe_count;
          match best_in_bucket tbl (mkey_of_five tbl.tkey k) with
          | Some r
            when matches r k
                 && (match best with
                    | None -> true
                    | Some b -> compare_rule r b < 0) ->
              walk (Some r) rest
          | _ -> walk best rest
        end)
  in
  walk None t.tuples

let lookup t k =
  match Hashtbl.find_opt t.cache k with
  | Some e when e.ce_gen = t.gen ->
      Sim.Stats.Counter.incr t.hits;
      e.ce_rule
  | _ ->
      Sim.Stats.Counter.incr t.misses;
      let r = search t k in
      if Hashtbl.length t.cache >= t.cache_capacity then begin
        Hashtbl.reset t.cache;
        Sim.Stats.Counter.incr t.flushes
      end;
      Hashtbl.replace t.cache k { ce_gen = t.gen; ce_rule = r };
      r

let lookup_span t ~span k =
  if
    span <> 0 && span = t.memo_span && t.memo_gen = t.gen
    && five_eq t.memo_key k
  then begin
    Sim.Stats.Counter.incr t.memo_hits;
    t.memo_rule
  end
  else begin
    let r = lookup t k in
    t.memo_span <- span;
    t.memo_gen <- t.gen;
    t.memo_key <- k;
    t.memo_rule <- r;
    r
  end

let lookup_linear t k =
  Hashtbl.fold
    (fun _ tbl acc ->
      Hashtbl.fold
        (fun _ bucket acc ->
          List.fold_left
            (fun acc r ->
              if matches r k then
                match acc with
                | None -> Some r
                | Some b -> if compare_rule r b < 0 then Some r else acc
              else acc)
            acc bucket)
        tbl.table acc)
    t.by_tkey None

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
      Hashtbl.length t.cache);
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
  let action ~state:_ frame ~in_port:_ =
    match Packet.Flow.five_of_frame frame with
    | None -> Router.Forwarder.Continue
    | Some k -> (
        (* Inside a batch span consecutive frames of a burst share the
           activation — and usually the flow — so route through the
           span memo.  Outside any span [current_span] is 0 and
           [lookup_span] degrades to plain [lookup]. *)
        let span =
          match Sim.Engine.current_engine () with
          | Some e -> Sim.Engine.current_span e
          | None -> 0
        in
        match lookup_span t ~span k with
        | None | Some { act = Accept; _ } -> Router.Forwarder.Continue
        | Some { act = Drop; _ } -> Router.Forwarder.Drop
        | Some { act = Forward p; _ } -> Router.Forwarder.Forward p
        | Some { act = Mark d; _ } ->
            Packet.Ipv4.set_tos frame (d lsl 2);
            Packet.Ipv4.fill_cksum frame;
            Router.Forwarder.Continue)
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
