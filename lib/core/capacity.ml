type t = {
  hw : Ixp.Config.t;
  cm : Cost_model.t;
  me_queue_cap : float;
  mem_op_overhead : int;
}

let default =
  {
    hw = Ixp.Config.default;
    cm = Cost_model.default;
    me_queue_cap = 4.0;
    mem_op_overhead = 18;
  }

let ops bytes (m : Ixp.Config.mem_timing) =
  Ixp.Mem.ops ~unit_log2:(Ixp.Mem.unit_log2 m) ~bytes

(* Uncontended memory latency of the baseline input+output path for one
   64-byte MP, per Table 2's operation counts. *)
let base_memory_cycles t =
  let hw = t.hw in
  let dram = hw.Ixp.Config.dram and sram = hw.Ixp.Config.sram in
  let scratch = hw.Ixp.Config.scratch in
  (* Input: DRAM (0/2), SRAM (2/1), Scratch (2/4). *)
  let input =
    (2 * dram.Ixp.Config.write_cycles)
    + (2 * sram.Ixp.Config.read_cycles)
    + (1 * sram.Ixp.Config.write_cycles)
    + (2 * scratch.Ixp.Config.read_cycles)
    + (4 * scratch.Ixp.Config.write_cycles)
  in
  (* Output: DRAM (2/0), SRAM (0/1), Scratch (2/2). *)
  let output =
    (2 * dram.Ixp.Config.read_cycles)
    + (1 * sram.Ixp.Config.write_cycles)
    + (2 * scratch.Ixp.Config.read_cycles)
    + (2 * scratch.Ixp.Config.write_cycles)
  in
  input + output

let packet_delay_cycles t =
  Cost_model.input_reg_total t.cm + Cost_model.output_reg_total t.cm
  + base_memory_cycles t

let me_hz t = t.hw.Ixp.Config.me_mhz *. 1e6

let packets_in_parallel t ~at_mpps =
  float_of_int (packet_delay_cycles t) /. (me_hz t /. (at_mpps *. 1e6))

let optimistic_upper_bound_mpps t =
  let per_me =
    me_hz t
    /. float_of_int
         (Cost_model.input_reg_total t.cm + Cost_model.output_reg_total t.cm)
  in
  per_me *. float_of_int t.hw.Ixp.Config.n_microengines /. 1e6

(* Input-stage memory latency per MP (Table 2 input rows), plus any VRP
   extra with the per-op overhead added. *)
let input_mem_cycles t (extra : Vrp.cost) =
  let hw = t.hw in
  let dram = hw.Ixp.Config.dram and sram = hw.Ixp.Config.sram in
  let scratch = hw.Ixp.Config.scratch in
  let base =
    (2 * dram.Ixp.Config.write_cycles)
    + (2 * sram.Ixp.Config.read_cycles)
    + (1 * sram.Ixp.Config.write_cycles)
    + (2 * scratch.Ixp.Config.read_cycles)
    + (4 * scratch.Ixp.Config.write_cycles)
  in
  let per op cycles = op * (cycles + t.mem_op_overhead) in
  base
  + per (ops extra.Vrp.sram_read_bytes sram) sram.Ixp.Config.read_cycles
  + per (ops extra.Vrp.sram_write_bytes sram) sram.Ixp.Config.write_cycles
  + per (ops extra.Vrp.scratch_read_bytes scratch) scratch.Ixp.Config.read_cycles
  + per
      (ops extra.Vrp.scratch_write_bytes scratch)
      scratch.Ixp.Config.write_cycles
  + per (ops extra.Vrp.dram_read_bytes dram) dram.Ixp.Config.read_cycles
  + per (ops extra.Vrp.dram_write_bytes dram) dram.Ixp.Config.write_cycles
  + (extra.Vrp.hashes * t.hw.Ixp.Config.hash_cycles)

let input_rate_mpps t ~contexts ~extra =
  let cm = t.cm in
  let serial =
    cm.Cost_model.input_serial_instr + cm.Cost_model.input_serial_wait
  in
  let reg = Cost_model.input_reg_total cm + extra.Vrp.instr in
  let mem = input_mem_cycles t extra in
  let per_me = min 4 contexts in
  (* Fixed point: per-context period T satisfies
       T = max(contexts * serial, serial + reg * q(T) + mem)
     where q inflates issue time by engine sharing. *)
  let rec iterate tk n =
    if n = 0 then tk
    else begin
      let util = float_of_int (per_me * reg) /. tk in
      let q = if util >= 1. then t.me_queue_cap else Float.min t.me_queue_cap (1. /. (1. -. util)) in
      let w = float_of_int serial +. (float_of_int reg *. q) +. float_of_int mem in
      let t' = Float.max (float_of_int (contexts * serial)) w in
      iterate ((tk +. t') /. 2.) (n - 1)
    end
  in
  let tfin = iterate 1000. 64 in
  float_of_int contexts /. tfin *. me_hz t /. 1e6

let vrp_budget t ~contexts ~line_rate_pps ~hashes =
  let block n =
    { Vrp.zero_cost with Vrp.instr = 10 * n; sram_read_bytes = 4 * n }
  in
  let fits n =
    input_rate_mpps t ~contexts ~extra:(block n) *. 1e6 >= line_rate_pps
  in
  let rec search lo hi =
    (* invariant: fits lo, not (fits (hi+1)) unbounded above *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      if fits mid then search mid hi else search lo (mid - 1)
    end
  in
  let n = if fits 0 then search 0 512 else 0 in
  {
    Vrp.b_cycles = 10 * n;
    b_sram_transfers = n;
    b_hashes = hashes;
    b_state_bytes = 4 * n;
    b_istore_slots =
      t.hw.Ixp.Config.istore_slots - t.hw.Ixp.Config.istore_ri_slots;
  }
