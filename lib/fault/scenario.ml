type t = {
  seed : int64;
  mem_delay : float;
  mem_delay_cycles : int;
  mem_drop : float;
  mac_corrupt : float;
  mac_truncate : float;
  mac_garbage : float;
  mac_loss : float;
  mac_burst : int;
  pool_fail : float;
  vrp_overrun : float;
  rogue_forwarder : float;
  sa_crash : float;
  sa_restart_us : float;
  pe_crash : float;
  pe_restart_us : float;
}

let zero =
  {
    seed = 0L;
    mem_delay = 0.;
    mem_delay_cycles = 100;
    mem_drop = 0.;
    mac_corrupt = 0.;
    mac_truncate = 0.;
    mac_garbage = 0.;
    mac_loss = 0.;
    mac_burst = 4;
    pool_fail = 0.;
    vrp_overrun = 0.;
    rogue_forwarder = 0.;
    sa_crash = 0.;
    sa_restart_us = 100.;
    pe_crash = 0.;
    pe_restart_us = 100.;
  }

let rates t =
  [
    ("mem_delay", t.mem_delay);
    ("mem_drop", t.mem_drop);
    ("mac_corrupt", t.mac_corrupt);
    ("mac_truncate", t.mac_truncate);
    ("mac_garbage", t.mac_garbage);
    ("mac_loss", t.mac_loss);
    ("pool_fail", t.pool_fail);
    ("vrp_overrun", t.vrp_overrun);
    ("rogue", t.rogue_forwarder);
    ("sa_crash", t.sa_crash);
    ("pe_crash", t.pe_crash);
  ]

let is_zero t = List.for_all (fun (_, r) -> r = 0.) (rates t)
let with_seed t seed = { t with seed }

(* The parameter (non-rate) fields, with their defaults, so [to_spec]
   only emits the ones that were changed. *)
let params t =
  [
    ("mem_delay_cycles", float_of_int t.mem_delay_cycles,
     float_of_int zero.mem_delay_cycles);
    ("mac_burst", float_of_int t.mac_burst, float_of_int zero.mac_burst);
    ("sa_restart_us", t.sa_restart_us, zero.sa_restart_us);
    ("pe_restart_us", t.pe_restart_us, zero.pe_restart_us);
  ]

let set t key v =
  let rate r =
    if r < 0. || r > 1. then
      Error (Printf.sprintf "%s: rate %g outside [0, 1]" key r)
    else Ok r
  in
  let posint name r =
    if r < 0. || r >= 0x1p62 || Float.rem r 1. <> 0. then
      Error (Printf.sprintf "%s: expected a non-negative integer" name)
    else Ok (int_of_float r)
  in
  let pos name r =
    if r < 0. then Error (Printf.sprintf "%s: negative" name) else Ok r
  in
  let ( let* ) = Result.bind in
  match key with
  | "mem_delay" -> let* r = rate v in Ok { t with mem_delay = r }
  | "mem_delay_cycles" ->
      let* n = posint key v in Ok { t with mem_delay_cycles = n }
  | "mem_drop" -> let* r = rate v in Ok { t with mem_drop = r }
  | "mac_corrupt" -> let* r = rate v in Ok { t with mac_corrupt = r }
  | "mac_truncate" -> let* r = rate v in Ok { t with mac_truncate = r }
  | "mac_garbage" -> let* r = rate v in Ok { t with mac_garbage = r }
  | "mac_loss" -> let* r = rate v in Ok { t with mac_loss = r }
  | "mac_burst" -> let* n = posint key v in Ok { t with mac_burst = n }
  | "pool_fail" -> let* r = rate v in Ok { t with pool_fail = r }
  | "vrp_overrun" -> let* r = rate v in Ok { t with vrp_overrun = r }
  | "rogue" | "rogue_forwarder" ->
      let* r = rate v in Ok { t with rogue_forwarder = r }
  | "sa_crash" -> let* r = rate v in Ok { t with sa_crash = r }
  | "sa_restart_us" -> let* x = pos key v in Ok { t with sa_restart_us = x }
  | "pe_crash" -> let* r = rate v in Ok { t with pe_crash = r }
  | "pe_restart_us" -> let* x = pos key v in Ok { t with pe_restart_us = x }
  | "seed" ->
      (* The spec never prints the seed, and callers seed the stream
         themselves, so a spec seed would be silently overridden. *)
      Error "seed: not a spec key; set the seed with --seed (with_seed)"
  | _ -> Error (Printf.sprintf "unknown fault %S" key)

let parse spec =
  match String.trim spec with
  | "" | "none" -> Ok zero
  | spec ->
      List.fold_left
        (fun acc item ->
          Result.bind acc (fun t ->
              match String.index_opt item ':' with
              | None -> Error (Printf.sprintf "expected key:value in %S" item)
              | Some i -> (
                  let key = String.trim (String.sub item 0 i) in
                  let v =
                    String.trim
                      (String.sub item (i + 1) (String.length item - i - 1))
                  in
                  match float_of_string_opt v with
                  | None -> Error (Printf.sprintf "%s: bad value %S" key v)
                  | Some f when not (Float.is_finite f) ->
                      Error
                        (Printf.sprintf "%s: %S is not a finite number" key v)
                  | Some v -> set t key v)))
        (Ok zero)
        (String.split_on_char ',' spec)

let to_spec t =
  let num v =
    (* Twelve digits where they parse back exactly, else every digit:
       specs stay readable and round-trip. *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  in
  let fields =
    List.filter_map
      (fun (k, r) -> if r = 0. then None else Some (k ^ ":" ^ num r))
      (rates t)
    @ List.filter_map
        (fun (k, v, dflt) -> if v = dflt then None else Some (k ^ ":" ^ num v))
        (params t)
  in
  match fields with [] -> "none" | fs -> String.concat "," fs

let to_json t =
  let open Telemetry.Json in
  Obj
    ([ ("seed", Int (Int64.to_int t.seed)); ("spec", String (to_spec t)) ]
    @ List.map (fun (k, r) -> (k, Float r)) (rates t)
    @ List.map (fun (k, v, _) -> (k, Float v)) (params t))
