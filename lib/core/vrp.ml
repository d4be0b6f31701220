type op =
  | Instr of int
  | Sram_read of int
  | Sram_write of int
  | Scratch_read of int
  | Scratch_write of int
  | Dram_read of int
  | Dram_write of int
  | Hash

type code = op list

type cost = {
  instr : int;
  sram_read_bytes : int;
  sram_write_bytes : int;
  scratch_read_bytes : int;
  scratch_write_bytes : int;
  dram_read_bytes : int;
  dram_write_bytes : int;
  hashes : int;
}

let zero_cost =
  {
    instr = 0;
    sram_read_bytes = 0;
    sram_write_bytes = 0;
    scratch_read_bytes = 0;
    scratch_write_bytes = 0;
    dram_read_bytes = 0;
    dram_write_bytes = 0;
    hashes = 0;
  }

let add_cost a b =
  {
    instr = a.instr + b.instr;
    sram_read_bytes = a.sram_read_bytes + b.sram_read_bytes;
    sram_write_bytes = a.sram_write_bytes + b.sram_write_bytes;
    scratch_read_bytes = a.scratch_read_bytes + b.scratch_read_bytes;
    scratch_write_bytes = a.scratch_write_bytes + b.scratch_write_bytes;
    dram_read_bytes = a.dram_read_bytes + b.dram_read_bytes;
    dram_write_bytes = a.dram_write_bytes + b.dram_write_bytes;
    hashes = a.hashes + b.hashes;
  }

let cost_of_op = function
  | Instr n -> { zero_cost with instr = n }
  | Sram_read b -> { zero_cost with sram_read_bytes = b }
  | Sram_write b -> { zero_cost with sram_write_bytes = b }
  | Scratch_read b -> { zero_cost with scratch_read_bytes = b }
  | Scratch_write b -> { zero_cost with scratch_write_bytes = b }
  | Dram_read b -> { zero_cost with dram_read_bytes = b }
  | Dram_write b -> { zero_cost with dram_write_bytes = b }
  | Hash -> { zero_cost with hashes = 1 }

let static_cost code =
  List.fold_left (fun acc op -> add_cost acc (cost_of_op op)) zero_cost code

let ops_for bytes (m : Ixp.Config.mem_timing) =
  Ixp.Mem.ops ~unit_log2:(Ixp.Mem.unit_log2 m) ~bytes

let sram_transfers (cfg : Ixp.Config.t) c =
  ops_for c.sram_read_bytes cfg.sram + ops_for c.sram_write_bytes cfg.sram

let cycles_estimate (cfg : Ixp.Config.t) c =
  (* Memory bursts pipeline on the channel: the first unit pays full
     latency, each further unit lands one occupancy slot later (the
     charging model of [Ixp.Mem.transfer]).  Aggregating a code block's
     bytes into one burst per direction keeps this a lower bound of the
     charged execution time — splitting a burst only adds latency. *)
  let mem (t : Ixp.Config.mem_timing) rb wb =
    let burst first n =
      if n = 0 then 0 else first + ((n - 1) * t.occupancy_cycles)
    in
    burst t.read_cycles (ops_for rb t) + burst t.write_cycles (ops_for wb t)
  in
  c.instr
  + mem cfg.sram c.sram_read_bytes c.sram_write_bytes
  + mem cfg.scratch c.scratch_read_bytes c.scratch_write_bytes
  + mem cfg.dram c.dram_read_bytes c.dram_write_bytes
  + (c.hashes * cfg.hash_cycles)

let istore_slots code =
  let per_op = function
    | Instr n -> n
    | Sram_read _ | Sram_write _ | Scratch_read _ | Scratch_write _
    | Dram_read _ | Dram_write _ | Hash ->
        1
  in
  1 (* trailing indirect jump (Figure 11) *)
  + List.fold_left (fun acc op -> acc + per_op op) 0 code

(* A plain recursive walk with the per-op overhead passed as two ints,
   so executing an op list allocates nothing.  The hash's value is
   unused, so it is charged, not computed. *)
let overhead ctx oh_instr oh_wait =
  if oh_instr > 0 then Chip_ctx.exec ctx oh_instr;
  if oh_wait > 0 then Chip_ctx.wait_cycles ctx oh_wait

let rec run ctx oh_instr oh_wait = function
  | [] -> ()
  | op :: rest ->
      (match op with
      | Instr n -> Chip_ctx.exec ctx n
      | Sram_read b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.sram_read ctx ~bytes:b
      | Sram_write b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.sram_write ctx ~bytes:b
      | Scratch_read b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.scratch_read ctx ~bytes:b
      | Scratch_write b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.scratch_write ctx ~bytes:b
      | Dram_read b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.dram_read ctx ~bytes:b
      | Dram_write b ->
          overhead ctx oh_instr oh_wait;
          Chip_ctx.dram_write ctx ~bytes:b
      | Hash -> Chip_ctx.hash_charge ctx);
      run ctx oh_instr oh_wait rest

let execute ctx code = run ctx 0 0 code

let execute_generic (cm : Cost_model.t) ctx code =
  run ctx cm.vrp_mem_op_instr cm.vrp_mem_op_wait code

type budget = {
  b_cycles : int;
  b_sram_transfers : int;
  b_hashes : int;
  b_state_bytes : int;
  b_istore_slots : int;
}

let pp_budget ppf b =
  Format.fprintf ppf
    "%d cycles, %d SRAM transfers, %d hashes, %d state bytes, %d ISTORE slots"
    b.b_cycles b.b_sram_transfers b.b_hashes b.b_state_bytes b.b_istore_slots

let prototype_budget =
  {
    b_cycles = 240;
    b_sram_transfers = 24;
    b_hashes = 3;
    b_state_bytes = 96;
    b_istore_slots = 650;
  }

let check b cost ~state_bytes ~slots =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  if cost.instr > b.b_cycles then
    err "cycles: needs %d, budget %d" cost.instr b.b_cycles;
  let xfers = sram_transfers Ixp.Config.default cost in
  if xfers > b.b_sram_transfers then
    err "SRAM transfers: needs %d, budget %d" xfers b.b_sram_transfers;
  if cost.hashes > b.b_hashes then
    err "hashes: needs %d, budget %d" cost.hashes b.b_hashes;
  if state_bytes > b.b_state_bytes then
    err "state: needs %d B, budget %d B" state_bytes b.b_state_bytes;
  if slots > b.b_istore_slots then
    err "ISTORE: needs %d slots, budget %d" slots b.b_istore_slots;
  match !errs with [] -> Ok () | es -> Error (List.rev es)

let check_recorded ?scope b cost ~state_bytes ~slots =
  let result = check b cost ~state_bytes ~slots in
  (match scope with
  | None -> ()
  | Some scope -> (
      let checks = Telemetry.Scope.counter scope "budget_checks" in
      let overruns = Telemetry.Scope.counter scope "budget_overruns" in
      Sim.Stats.Counter.incr checks;
      match result with
      | Ok () -> ()
      | Error es ->
          Sim.Stats.Counter.incr overruns;
          List.iter
            (fun e -> Telemetry.Scope.event scope ("budget overrun: " ^ e))
            es));
  result
