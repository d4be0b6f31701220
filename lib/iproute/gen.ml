let length_distribution =
  [
    (8, 0.002);
    (12, 0.005);
    (14, 0.01);
    (16, 0.10);
    (18, 0.04);
    (19, 0.06);
    (20, 0.08);
    (21, 0.07);
    (22, 0.11);
    (23, 0.09);
    (24, 0.54);
  ]

let pick_length rng =
  let x = Sim.Rng.float rng 1.0 in
  let rec go acc = function
    | [] -> 24
    | (len, w) :: rest -> if x < acc +. w then len else go (acc +. w) rest
  in
  go 0. length_distribution

let table ~rng ~n ~n_ports =
  if n <= 0 || n_ports <= 0 then invalid_arg "Gen.table";
  let seen = Hashtbl.create (2 * n) in
  let rec fresh () =
    let p = Prefix.make (Sim.Rng.int32 rng) (pick_length rng) in
    if Hashtbl.mem seen p then fresh ()
    else begin
      Hashtbl.replace seen p ();
      p
    end
  in
  (Prefix.default, 0)
  :: List.init (n - 1) (fun _ -> (fresh (), Sim.Rng.int rng n_ports))

let bgp_table ~rng ~n ~n_ports =
  if n <= 0 || n_ports <= 0 then invalid_arg "Gen.bgp_table";
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n (Prefix.default, 0) in
  Hashtbl.replace seen Prefix.default ();
  (* Provider aggregates: most announcements are more-specifics punched
     into a modest number of short blocks, which is what gives real
     tables their deep nesting (and a trie its shared paths). *)
  let n_blocks = max 1 (n / 512) in
  let blocks =
    Array.init n_blocks (fun _ ->
        Prefix.make (Sim.Rng.int32 rng) (8 + Sim.Rng.int rng 5))
  in
  let idx = ref 1 in
  let emit p =
    if not (Hashtbl.mem seen p) && !idx < n then begin
      Hashtbl.replace seen p ();
      out.(!idx) <- (p, Sim.Rng.int rng n_ports);
      incr idx;
      true
    end
    else false
  in
  Array.iter (fun b -> ignore (emit b)) blocks;
  let misses = ref 0 in
  while !idx < n do
    let b = blocks.(Sim.Rng.int rng n_blocks) in
    let blen = Prefix.length b in
    let len = pick_length rng in
    let p =
      if len <= blen || !misses > 64 then
        (* flat announcement outside any aggregate; also the escape
           hatch when a small table saturates its blocks *)
        Prefix.make (Sim.Rng.int32 rng) len
      else
        let bits = Sim.Rng.int rng (1 lsl (len - blen)) in
        Prefix.of_bits (Prefix.bits b lor (bits lsl (32 - len))) len
    in
    if emit p then misses := 0 else incr misses
  done;
  out

type op = Announce of Prefix.t * int | Withdraw of Prefix.t

let churn ~rng ~base ~n_ports ~steps =
  let nb = Array.length base in
  if nb < 2 || n_ports <= 0 || steps < 0 then invalid_arg "Gen.churn";
  let flapped = ref [] in
  let n_flapped = ref 0 in
  Array.init steps (fun _ ->
      let x = Sim.Rng.float rng 1.0 in
      match !flapped with
      | p :: rest when x < 0.45 ->
          (* a flapped route comes back, often via a different port *)
          flapped := rest;
          decr n_flapped;
          Announce (p, Sim.Rng.int rng n_ports)
      | _ ->
          if x < 0.85 then begin
            (* withdraw a random non-default entry *)
            let p, _ = base.(1 + Sim.Rng.int rng (nb - 1)) in
            if !n_flapped < 4096 then begin
              flapped := p :: !flapped;
              incr n_flapped
            end;
            Withdraw p
          end
          else
            (* punch a brand-new more-specific (down to /32 hosts)
               into an existing entry *)
            let p, _ = base.(Sim.Rng.int rng nb) in
            let len = min 32 (Prefix.length p + 1 + Sim.Rng.int rng 9) in
            let extra = len - Prefix.length p in
            let bits = Sim.Rng.int rng (1 lsl min 30 extra) in
            let addr = Prefix.bits p lor (bits lsl (32 - len)) in
            Announce (Prefix.of_bits addr len, Sim.Rng.int rng n_ports))

let hit_addr ~rng arr =
  let p, _ = Sim.Rng.pick rng arr in
  let host_bits = 32 - Prefix.length p in
  let noise =
    if host_bits = 0 then 0l
    else Int32.of_int (Sim.Rng.int rng (1 lsl min 30 host_bits))
  in
  Int32.logor (Prefix.addr p) noise

let matching_addr ~rng bindings =
  let arr = Array.of_list bindings in
  let p, _ = Sim.Rng.pick rng arr in
  let host_bits = 32 - Prefix.length p in
  let noise =
    if host_bits = 0 then 0l
    else
      Int32.of_int (Sim.Rng.int rng (1 lsl min 30 host_bits))
  in
  Int32.logor (Prefix.addr p) noise
