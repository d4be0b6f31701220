type t = {
  input_serial_instr : int;
  input_serial_wait : int;
  input_copy_instr : int;
  input_loop_instr : int;
  classify_null_instr : int;
  classify_null_sram_reads : int;
  classify_full_instr : int;
  classify_full_sram_bytes : int;
  forward_null_instr : int;
  enqueue_instr : int;
  enqueue_sram_writes : int;
  enqueue_scratch_reads : int;
  enqueue_scratch_writes : int;
  mutex_scratch_reads : int;
  mutex_scratch_writes : int;
  alloc_scratch_writes : int;
  output_serial_instr : int;
  output_serial_wait : int;
  output_mp_instr : int;
  output_pkt_instr : int;
  dequeue_sram_writes : int;
  dequeue_scratch_reads : int;
  dequeue_scratch_writes : int;
  o3_select_instr : int;
  o3_scratch_reads : int;
  sa_poll_instr : int;
  sa_dequeue_sram_bytes : int;
  sa_interrupt_cycles : int;
  sa_route_lookup_instr : int;
  sa_route_lookup_sram_bytes : int;
  pe_loop_instr : int;
  pe_touch_cycles_per_byte : float;
  vrp_mem_op_instr : int;
  vrp_mem_op_wait : int;
  mf_cache_instr : int;
  mf_probe_instr : int;
  mf_probe_sram_bytes : int;
  dyn_sched_scratch_reads : int;
  dyn_sched_scratch_writes : int;
  dyn_sched_instr : int;
  per_burst : bool;
  sa_poll_backoff_cycles : int;
}

let default =
  {
    input_serial_instr = 10;
    input_serial_wait = 38;
    input_copy_instr = 20;
    input_loop_instr = 61;
    classify_null_instr = 45;
    classify_null_sram_reads = 2;
    classify_full_instr = 56;
    classify_full_sram_bytes = 20;
    forward_null_instr = 10;
    enqueue_instr = 25;
    enqueue_sram_writes = 1;
    enqueue_scratch_reads = 1;
    enqueue_scratch_writes = 2;
    mutex_scratch_reads = 1;
    mutex_scratch_writes = 1;
    alloc_scratch_writes = 1;
    output_serial_instr = 8;
    output_serial_wait = 16;
    output_mp_instr = 55;
    output_pkt_instr = 46;
    dequeue_sram_writes = 1;
    dequeue_scratch_reads = 1;
    dequeue_scratch_writes = 1;
    o3_select_instr = 13;
    o3_scratch_reads = 1;
    sa_poll_instr = 60;
    sa_dequeue_sram_bytes = 8;
    sa_interrupt_cycles = 700;
    sa_route_lookup_instr = 170;
    sa_route_lookup_sram_bytes = 12;
    pe_loop_instr = 360;
    pe_touch_cycles_per_byte = 10.5;
    vrp_mem_op_instr = 8;
    vrp_mem_op_wait = 25;
    mf_cache_instr = 12;
    mf_probe_instr = 10;
    mf_probe_sram_bytes = 8;
    dyn_sched_scratch_reads = 2;
    dyn_sched_scratch_writes = 2;
    dyn_sched_instr = 20;
    per_burst = true;
    sa_poll_backoff_cycles = 512;
  }

let input_reg_total c =
  c.input_serial_instr + c.input_copy_instr + c.input_loop_instr
  + c.classify_null_instr + c.forward_null_instr + c.enqueue_instr

let output_reg_total c =
  c.output_serial_instr + c.output_mp_instr + c.output_pkt_instr
