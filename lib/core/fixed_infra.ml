type input_discipline = I1_private | I2_protected | I_spinlock | I_dynamic

type output_discipline = O1_batch | O2_single | O3_multi

type stage = Input_only | Output_only | Both

type config = {
  cm : Cost_model.t;
  hw : Ixp.Config.t;
  n_input_contexts : int;
  n_output_contexts : int;
  input_disc : input_discipline;
  output_disc : output_discipline;
  stage : stage;
  contention : bool;
  exceptional_share : float;
  vrp_blocks : Vrp.code;
  frame_len : int;
  n_queues : int;
  queue_capacity : int;
  warmup_us : float;
  measure_us : float;
}

let default =
  {
    (* The calibration apparatus reproduces the paper's *measured* loops,
       which activate a context per MP; per-burst serial amortization is
       a departure from that hardware and would shift every Table 1 /
       Figure 7 number it was calibrated against. *)
    cm = { Cost_model.default with Cost_model.per_burst = false };
    hw = Ixp.Config.default;
    n_input_contexts = 16;
    n_output_contexts = 8;
    input_disc = I2_protected;
    output_disc = O1_batch;
    stage = Both;
    contention = false;
    exceptional_share = 0.;
    vrp_blocks = [];
    frame_len = 64;
    n_queues = 8;
    queue_capacity = 4096;
    warmup_us = 300.;
    measure_us = 1500.;
  }

type result = {
  in_mpps : float;
  out_mpps : float;
  me_utilization : float array;
  sram_utilization : float;
  dram_utilization : float;
  input_token_hold : float;
  output_token_hold : float;
  mutex_waits : int;
  enq_drops : int;
  stale_bufs : int;
  sa_kpps : float;
  sa_backlog : int;
  dram_ops_per_pkt : float;
  sram_ops_per_pkt : float;
  scratch_ops_per_pkt : float;
  latency_ns_mean : float;
}

(* Contexts are spread round-robin over a stage's MicroEngines so that
   consecutive token holders sit on different engines (section 3.2.2), and
   only the minimum number of engines is used (Figure 7's methodology). *)
let ctx_ids ~me_base ~contexts_per_me ~n =
  let n_me = (n + contexts_per_me - 1) / contexts_per_me in
  List.init n (fun i -> ((me_base + (i mod n_me)) * contexts_per_me) + (i / n_me))

let mes_used ~contexts_per_me ~n = (n + contexts_per_me - 1) / contexts_per_me

let run ?telemetry cfg =
  let engine = Sim.Engine.create () in
  let hw =
    (* Make sure the chip has enough MicroEngines for the requested split
       (Figure 7 sweeps one stage alone up to all 6). *)
    let need =
      (match cfg.stage with
      | Both ->
          mes_used ~contexts_per_me:4 ~n:cfg.n_input_contexts
          + mes_used ~contexts_per_me:4 ~n:cfg.n_output_contexts
      | Input_only -> mes_used ~contexts_per_me:4 ~n:cfg.n_input_contexts
      | Output_only -> mes_used ~contexts_per_me:4 ~n:cfg.n_output_contexts)
    in
    if need > cfg.hw.Ixp.Config.n_microengines then
      { cfg.hw with Ixp.Config.n_microengines = need }
    else cfg.hw
  in
  let chip = Ixp.Chip.create ~cfg:hw ~ports:[] engine in
  let cm = cfg.cm in
  let queues =
    Array.init cfg.n_queues (fun i ->
        Squeue.create
          ~name:(Printf.sprintf "outq%d" i)
          ~capacity:cfg.queue_capacity ())
  in
  let spinlocks =
    Array.init cfg.n_queues (fun _ ->
        Sim.Spinlock.create ~engine
          ~retry_ps:(Sim.Engine.Clock.ps_of_cycles chip.Ixp.Chip.me_clock 8)
          ())
  in
  let frame =
    Packet.Build.udp ~frame_len:cfg.frame_len
      ~src:(Packet.Ipv4.addr_of_string "10.0.0.1")
      ~dst:(Packet.Ipv4.addr_of_string "10.1.0.1")
      ~src_port:1000 ~dst_port:2000 ()
  in
  let istats = Input_loop.make_stats () in
  let ostats = Output_loop.make_stats () in
  let latency = Sim.Stats.Histogram.create "latency" in

  (* Telemetry wiring: registration happens once, before fibers start;
     the hot loops keep mutating the same stats records as ever, and
     gauges read them only at snapshot time. *)
  let in_me_range, out_me_range =
    let n_in = mes_used ~contexts_per_me:4 ~n:cfg.n_input_contexts in
    let n_out = mes_used ~contexts_per_me:4 ~n:cfg.n_output_contexts in
    match cfg.stage with
    | Both -> ((0, n_in), (n_in, n_in + n_out))
    | Input_only -> ((0, n_in), (0, 0))
    | Output_only -> ((0, 0), (0, n_out))
  in
  let input_scope, output_scope =
    match telemetry with
    | None -> (None, None)
    | Some reg ->
        Telemetry.Registry.set_clock reg (fun () -> Sim.Engine.time engine);
        Array.iteri
          (fun i me ->
            let s =
              Telemetry.Registry.scope reg "me"
                ~labels:[ ("id", string_of_int i) ]
            in
            Ixp.Microengine.register_telemetry s me)
          chip.Ixp.Chip.mes;
        Array.iter
          (fun q ->
            let s =
              Telemetry.Registry.scope reg "queue"
                ~labels:[ ("name", Squeue.name q) ]
            in
            Squeue.register_telemetry s q)
          queues;
        let instructions_in (lo, hi) =
          let total = ref 0 in
          for i = lo to hi - 1 do
            total := !total + Ixp.Microengine.instructions chip.Ixp.Chip.mes.(i)
          done;
          !total
        in
        let per_packet range counter () =
          float_of_int (instructions_in range)
          /. float_of_int (max 1 (Sim.Stats.Counter.value counter))
        in
        let si = Telemetry.Registry.scope reg "input" in
        Input_loop.register_stats si istats;
        Telemetry.Scope.gauge si "cycles_per_packet"
          (per_packet in_me_range istats.Input_loop.pkts_in);
        let so = Telemetry.Registry.scope reg "output" in
        Output_loop.register_stats so ostats;
        Telemetry.Scope.register_histogram so ~name:"latency_ps" latency;
        Telemetry.Scope.gauge so "cycles_per_packet"
          (per_packet out_me_range ostats.Output_loop.pkts_out);
        (if cfg.vrp_blocks <> [] then
           let vs = Telemetry.Registry.scope reg "vrp" in
           ignore
             (Vrp.check_recorded ~scope:vs Vrp.prototype_budget
                (Vrp.static_cost cfg.vrp_blocks)
                ~state_bytes:0
                ~slots:(Vrp.istore_slots cfg.vrp_blocks)));
        (Some si, Some so)
  in

  (* Input stage. *)
  let input_ring =
    Sim.Token_ring.create ~name:"input-token"
      ~pass_ps:
        (Sim.Engine.Clock.ps_of_cycles chip.Ixp.Chip.me_clock
           hw.Ixp.Config.token_pass_cycles)
      ~members:cfg.n_input_contexts chip.Ixp.Chip.engine
  in
  let choose_qid ctx_seq = if cfg.contention then 0 else ctx_seq mod cfg.n_queues in
  let enq =
    match cfg.input_disc with
    | I1_private -> Input_loop.enqueue_private cm
    | I2_protected | I_dynamic -> Input_loop.enqueue_protected cm
    | I_spinlock ->
        fun ctx q desc ->
          (* Each test-and-set attempt is a real SRAM access; under
             contention these flood the channel (section 3.4.2). *)
          let lock =
            let rec find i =
              if i >= Array.length queues then spinlocks.(0)
              else if queues.(i) == q then spinlocks.(i)
              else find (i + 1)
            in
            find 0
          in
          Sim.Spinlock.lock lock ~attempt:(fun () ->
              Chip_ctx.sram_read ctx ~bytes:4);
          Chip_ctx.exec ctx cm.Cost_model.enqueue_instr;
          Chip_ctx.sram_write ctx ~bytes:(4 * cm.Cost_model.enqueue_sram_writes);
          Chip_ctx.scratch_write ctx
            ~bytes:(4 * cm.Cost_model.enqueue_scratch_writes);
          let ok = Squeue.push q desc in
          Sim.Spinlock.unlock lock ~attempt:(fun () ->
              Chip_ctx.sram_write ctx ~bytes:4);
          ok
  in
  (* Exceptional path: an SA-bound queue plus a StrongARM fiber that
     drains it at its own pace (section 4.7's second experiment). *)
  let sa_q = Squeue.create ~name:"sa.exceptional" ~capacity:8192 () in
  let sa_done = Sim.Stats.Counter.create () in
  (match telemetry with
  | Some reg when cfg.exceptional_share > 0. ->
      let s = Telemetry.Registry.scope reg "strongarm" in
      Telemetry.Scope.register_counter s ~name:"serviced" sa_done;
      Squeue.register_telemetry
        (Telemetry.Scope.sub s "queue"
           ~labels:[ ("name", Squeue.name sa_q) ])
        sa_q
  | _ -> ());
  if cfg.exceptional_share > 0. then begin
    let sa_ctx = Chip_ctx.make_cpu chip chip.Ixp.Chip.me_clock in
    Sim.Engine.spawn engine "strongarm-drain" (fun () ->
        let rec loop backoff =
          match Squeue.pop sa_q with
          | Some desc ->
              Chip_ctx.exec sa_ctx cm.Cost_model.sa_poll_instr;
              Chip_ctx.sram_read sa_ctx
                ~bytes:cm.Cost_model.sa_dequeue_sram_bytes;
              Chip_ctx.exec sa_ctx 180 (* null local forwarder *);
              ignore
                (Input_loop.enqueue_protected cm sa_ctx
                   queues.(desc.Desc.out_port mod cfg.n_queues)
                   desc);
              Sim.Stats.Counter.incr sa_done;
              loop 1
          | None ->
              Chip_ctx.wait_cycles sa_ctx backoff;
              loop (min (backoff * 2) 256)
        in
        loop 1)
  end;
  let exceptional_period =
    if cfg.exceptional_share <= 0. then max_int
    else int_of_float (Float.round (1. /. cfg.exceptional_share))
  in
  let classify_and_forward seq =
    let count = ref 0 in
    fun ctx frm ~in_port ->
      ignore in_port;
      (* Trivial classifier: destination hash, route-cache hit assumed. *)
      Chip_ctx.exec ctx cm.Cost_model.classify_null_instr;
      ignore (Chip_ctx.hash ctx (Int64.of_int32 (Packet.Ipv4.get_dst frm)));
      Chip_ctx.sram_read ctx
        ~bytes:(4 * cm.Cost_model.classify_null_sram_reads);
      (* Null forwarder plus any synthetic VRP blocks under test. *)
      Chip_ctx.exec ctx cm.Cost_model.forward_null_instr;
      if cfg.vrp_blocks <> [] then
        Vrp.execute_generic cm ctx cfg.vrp_blocks;
      (* Dynamic-allocation ablation: pay the scheduling work queue. *)
      (if cfg.input_disc = I_dynamic then begin
         Chip_ctx.scratch_read ctx
           ~bytes:(4 * cm.Cost_model.dyn_sched_scratch_reads);
         Chip_ctx.exec ctx cm.Cost_model.dyn_sched_instr;
         Chip_ctx.scratch_write ctx
           ~bytes:(4 * cm.Cost_model.dyn_sched_scratch_writes)
       end);
      incr count;
      let qid = choose_qid seq in
      if !count mod exceptional_period = 0 then
        (* Same processing, different destination queue: that is all an
           exceptional packet costs the input stage. *)
        Input_loop.To_queue { qid = cfg.n_queues; out_port = qid; fid = -1 }
      else Input_loop.To_queue { qid; out_port = qid; fid = -1 }
  in
  let input_ids =
    ctx_ids ~me_base:0 ~contexts_per_me:4 ~n:cfg.n_input_contexts
  in
  let run_input = cfg.stage = Both || cfg.stage = Input_only in
  if run_input then
    List.iteri
      (fun seq ctx_id ->
        let t =
          {
            Input_loop.cm;
            enq;
            process = classify_and_forward seq;
            process_rest_mp = (fun _ _ -> ());
            queue_of =
              (fun ~ctx_id:_ qid ->
                if qid = cfg.n_queues then sa_q else queues.(qid));
            notify = None;
            idle_backoff_cycles = 64;
            scope = input_scope;
            recycle = None;
          }
        in
        Input_loop.spawn_context t chip ~ring:input_ring ~slot:seq ~ctx_id
          ~source:(Input_loop.Replay frame) ~stats:istats)
      input_ids;

  (* Output stage. *)
  let output_ring =
    Sim.Token_ring.create ~name:"output-token"
      ~pass_ps:
        (Sim.Engine.Clock.ps_of_cycles chip.Ixp.Chip.me_clock
           hw.Ixp.Config.token_pass_cycles)
      ~members:(max 1 cfg.n_output_contexts) chip.Ixp.Chip.engine
  in
  let run_output = cfg.stage = Both || cfg.stage = Output_only in
  if run_output then begin
    let out_me_base =
      match cfg.stage with
      | Both -> mes_used ~contexts_per_me:4 ~n:cfg.n_input_contexts
      | Output_only | Input_only -> 0
    in
    let output_ids =
      ctx_ids ~me_base:out_me_base ~contexts_per_me:4 ~n:cfg.n_output_contexts
    in
    (* Assign queues to output contexts round-robin (static, section
       3.4.1). *)
    let queues_of j =
      let mine = ref [] in
      Array.iteri (fun i q -> if i mod cfg.n_output_contexts = j then mine := q :: !mine) queues;
      Array.of_list (List.rev !mine)
    in
    List.iteri
      (fun j ctx_id ->
        let qs = queues_of j in
        let qs = if Array.length qs = 0 then [| queues.(0) |] else qs in
        let t =
          {
            Output_loop.cm;
            discipline =
              (match cfg.output_disc with
              | O1_batch -> Output_loop.O1_batch
              | O2_single -> Output_loop.O2_single
              | O3_multi -> Output_loop.O3_multi);
            queues = qs;
            port_for = (fun _ -> None);
            on_tx =
              Some
                (fun desc _ ->
                  Sim.Stats.Histogram.observe_i latency
                    (Sim.Engine.clock_i engine - desc.Desc.arrival));
            idle_backoff_cycles = 64;
            scope = output_scope;
          }
        in
        Output_loop.spawn_context t chip ~ring:output_ring ~slot:j ~ctx_id
          ~stats:ostats)
      output_ids;
    (* Output-only runs are "fooled into believing data was always
       available": a zero-cost refiller keeps every queue topped up.
       Each descriptor gets its own buffer, since transmit frees it. *)
    if cfg.stage = Output_only then begin
      Sim.Engine.spawn engine "refiller" (fun () ->
          let rec top_up () =
            Array.iteri
              (fun i q ->
                while Squeue.length q < 256 do
                  let buf = Ixp.Buffer_pool.alloc chip.Ixp.Chip.buffers frame in
                  ignore
                    (Squeue.push q
                       (Desc.make ~buf ~len:cfg.frame_len ~in_port:0
                          ~out_port:i ~arrival:(Sim.Engine.clock_i engine) ()))
                done)
              queues;
            Sim.Engine.wait_in engine 2_000_000;
            top_up ()
          in
          top_up ())
    end
  end;

  (* Input-only runs need the queues drained without output-side hardware
     cost so the enqueue rate is what is measured. *)
  if run_input && not run_output then
    Sim.Engine.spawn engine "drainer" (fun () ->
        let rec drain () =
          Array.iter (fun q -> while Squeue.pop q <> None do () done) queues;
          Sim.Engine.wait_in engine 1_000_000;
          drain ()
        in
        drain ());

  (* Warm up, snapshot, measure. *)
  let warm = Sim.Engine.of_seconds (cfg.warmup_us *. 1e-6) in
  let stop = Sim.Engine.of_seconds ((cfg.warmup_us +. cfg.measure_us) *. 1e-6) in
  Sim.Engine.run engine ~until:warm;
  (* The input-stage rate counts every packet the stage processed,
     including ones dropped at a full queue — under I.3 contention the
     queue backs up but the stage's processing rate is the measurement. *)
  let in0 = Sim.Stats.Counter.value istats.Input_loop.pkts_in in
  let sa0 = Sim.Stats.Counter.value sa_done in
  let out0 = Sim.Stats.Counter.value ostats.Output_loop.pkts_out in
  let me_busy0 = Array.map Ixp.Microengine.busy_time chip.Ixp.Chip.mes in
  let sram_busy0 = Sim.Server.busy_time (Ixp.Mem.server chip.Ixp.Chip.sram) in
  let dram_busy0 = Sim.Server.busy_time (Ixp.Mem.server chip.Ixp.Chip.dram) in
  let ithold0 = Sim.Token_ring.hold_time_total input_ring in
  let othold0 = Sim.Token_ring.hold_time_total output_ring in
  let dram_ops0 = Ixp.Mem.ops_completed chip.Ixp.Chip.dram in
  let sram_ops0 = Ixp.Mem.ops_completed chip.Ixp.Chip.sram in
  let scratch_ops0 = Ixp.Mem.ops_completed chip.Ixp.Chip.scratch in
  Sim.Engine.run engine ~until:stop;
  let window = Int64.sub stop warm in
  let secs = Sim.Engine.seconds window in
  let rate c0 c = float_of_int (c - c0) /. secs /. 1e6 in
  let frac t0 t1 = Int64.to_float (Int64.sub t1 t0) /. Int64.to_float window in
  {
    in_mpps = rate in0 (Sim.Stats.Counter.value istats.Input_loop.pkts_in);
    out_mpps = rate out0 (Sim.Stats.Counter.value ostats.Output_loop.pkts_out);
    me_utilization =
      Array.mapi
        (fun i me -> frac me_busy0.(i) (Ixp.Microengine.busy_time me))
        chip.Ixp.Chip.mes;
    sram_utilization =
      frac sram_busy0 (Sim.Server.busy_time (Ixp.Mem.server chip.Ixp.Chip.sram));
    dram_utilization =
      frac dram_busy0 (Sim.Server.busy_time (Ixp.Mem.server chip.Ixp.Chip.dram));
    input_token_hold = frac ithold0 (Sim.Token_ring.hold_time_total input_ring);
    output_token_hold =
      frac othold0 (Sim.Token_ring.hold_time_total output_ring);
    mutex_waits =
      Array.fold_left
        (fun acc q -> acc + Sim.Mutex.contended_acquires (Squeue.mutex q))
        0 queues;
    enq_drops = Sim.Stats.Counter.value istats.Input_loop.enq_drop;
    stale_bufs = Sim.Stats.Counter.value ostats.Output_loop.stale_bufs;
    sa_kpps =
      float_of_int (Sim.Stats.Counter.value sa_done - sa0) /. secs /. 1e3;
    sa_backlog = Squeue.length sa_q;
    dram_ops_per_pkt =
      (let pkts =
         max 1 (Sim.Stats.Counter.value istats.Input_loop.pkts_in - in0)
       in
       float_of_int (Ixp.Mem.ops_completed chip.Ixp.Chip.dram - dram_ops0)
       /. float_of_int pkts);
    sram_ops_per_pkt =
      (let pkts =
         max 1 (Sim.Stats.Counter.value istats.Input_loop.pkts_in - in0)
       in
       float_of_int (Ixp.Mem.ops_completed chip.Ixp.Chip.sram - sram_ops0)
       /. float_of_int pkts);
    scratch_ops_per_pkt =
      (let pkts =
         max 1 (Sim.Stats.Counter.value istats.Input_loop.pkts_in - in0)
       in
       float_of_int (Ixp.Mem.ops_completed chip.Ixp.Chip.scratch - scratch_ops0)
       /. float_of_int pkts);
    latency_ns_mean = Sim.Stats.Histogram.mean latency /. 1e3;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "in=%.3f Mpps out=%.3f Mpps token(in)=%.2f token(out)=%.2f sram=%.2f \
     dram=%.2f mutex_waits=%d drops=%d stale=%d"
    r.in_mpps r.out_mpps r.input_token_hold r.output_token_hold
    r.sram_utilization r.dram_utilization r.mutex_waits r.enq_drops
    r.stale_bufs
