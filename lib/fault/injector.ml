type site =
  | Mem_delay
  | Mem_drop
  | Mac_corrupt
  | Mac_truncate
  | Mac_garbage
  | Mac_loss
  | Pool_fail
  | Vrp_overrun
  | Rogue_forwarder
  | Sa_crash
  | Pe_crash

let all_sites =
  [
    Mem_delay; Mem_drop; Mac_corrupt; Mac_truncate; Mac_garbage; Mac_loss;
    Pool_fail; Vrp_overrun; Rogue_forwarder; Sa_crash; Pe_crash;
  ]

let site_name = function
  | Mem_delay -> "mem_delay"
  | Mem_drop -> "mem_drop"
  | Mac_corrupt -> "mac_corrupt"
  | Mac_truncate -> "mac_truncate"
  | Mac_garbage -> "mac_garbage"
  | Mac_loss -> "mac_loss"
  | Pool_fail -> "pool_fail"
  | Vrp_overrun -> "vrp_overrun"
  | Rogue_forwarder -> "rogue"
  | Sa_crash -> "sa_crash"
  | Pe_crash -> "pe_crash"

let site_index = function
  | Mem_delay -> 0
  | Mem_drop -> 1
  | Mac_corrupt -> 2
  | Mac_truncate -> 3
  | Mac_garbage -> 4
  | Mac_loss -> 5
  | Pool_fail -> 6
  | Vrp_overrun -> 7
  | Rogue_forwarder -> 8
  | Sa_crash -> 9
  | Pe_crash -> 10

let n_sites = List.length all_sites

type t = {
  scenario : Scenario.t;
  rng : Sim.Rng.t;
  counts : int array;
  scope : Telemetry.Scope.t option;
  mutable loss_left : int; (* frames remaining in the current loss burst *)
}

let create ?scope scenario =
  let t =
    {
      scenario;
      rng = Sim.Rng.create scenario.Scenario.seed;
      counts = Array.make n_sites 0;
      scope;
      loss_left = 0;
    }
  in
  (match scope with
  | None -> ()
  | Some scope ->
      List.iter
        (fun site ->
          Telemetry.Scope.gauge_int scope
            ("injected_" ^ site_name site)
            (fun () -> t.counts.(site_index site)))
        all_sites);
  t

let scenario t = t.scenario

let rate t = function
  | Mem_delay -> t.scenario.Scenario.mem_delay
  | Mem_drop -> t.scenario.Scenario.mem_drop
  | Mac_corrupt -> t.scenario.Scenario.mac_corrupt
  | Mac_truncate -> t.scenario.Scenario.mac_truncate
  | Mac_garbage -> t.scenario.Scenario.mac_garbage
  | Mac_loss -> t.scenario.Scenario.mac_loss
  | Pool_fail -> t.scenario.Scenario.pool_fail
  | Vrp_overrun -> t.scenario.Scenario.vrp_overrun
  | Rogue_forwarder -> t.scenario.Scenario.rogue_forwarder
  | Sa_crash -> t.scenario.Scenario.sa_crash
  | Pe_crash -> t.scenario.Scenario.pe_crash

let record t site =
  t.counts.(site_index site) <- t.counts.(site_index site) + 1;
  match t.scope with
  | None -> ()
  | Some scope -> Telemetry.Scope.event scope ("inject: " ^ site_name site)

let fires t site =
  let r = rate t site in
  (* A zero-rate site consumes no randomness, so enabling one fault kind
     does not shift another kind's decision stream. *)
  if r <= 0. then false
  else if Sim.Rng.float t.rng 1.0 < r then begin
    record t site;
    true
  end
  else false

let mac_frame_lost t =
  if t.loss_left > 0 then begin
    t.loss_left <- t.loss_left - 1;
    record t Mac_loss;
    true
  end
  else if fires t Mac_loss then begin
    t.loss_left <- max 0 (t.scenario.Scenario.mac_burst - 1);
    true
  end
  else false

let draw_int t bound = Sim.Rng.int t.rng bound

let corrupt_frame t f =
  let f = Packet.Frame.copy f in
  let n = 1 + draw_int t 4 in
  for _ = 1 to n do
    Packet.Frame.set_u8 f
      (draw_int t (Packet.Frame.len f))
      (draw_int t 256)
  done;
  f

let truncate_frame t f =
  let f = Packet.Frame.copy f in
  let len = Packet.Frame.len f in
  if len > 15 then f.Packet.Frame.len <- 15 + draw_int t (len - 15);
  f

let garbage_frame t f =
  let len = Packet.Frame.len f in
  let g = Packet.Frame.alloc len in
  for i = 0 to len - 1 do
    Packet.Frame.set_u8 g i (draw_int t 256)
  done;
  g

let count t site = t.counts.(site_index site)
let total t = Array.fold_left ( + ) 0 t.counts

let counts t =
  List.filter_map
    (fun site ->
      let n = count t site in
      if n = 0 then None else Some (site_name site, n))
    all_sites

let to_json t =
  let open Telemetry.Json in
  Obj
    [
      ("scenario", Scenario.to_json t.scenario);
      ("counts", Obj (List.map (fun (k, n) -> (k, Int n)) (counts t)));
      ("total", Int (total t));
    ]

let pp_counts ppf t =
  match counts t with
  | [] -> Format.pp_print_string ppf "no faults injected"
  | cs ->
      Format.fprintf ppf "injected:";
      List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) cs
