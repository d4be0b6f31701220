type source = Replay of Packet.Frame.t | Port of Ixp.Mac_port.t

type target =
  | To_queue of { qid : int; out_port : int; fid : int }
  | Drop_it

type stats = {
  mps_in : Sim.Stats.Counter.t;
  pkts_in : Sim.Stats.Counter.t;
  enq_ok : Sim.Stats.Counter.t;
  enq_drop : Sim.Stats.Counter.t;
  drop_by_process : Sim.Stats.Counter.t;
  batch_mps : Sim.Stats.Histogram.t;
}

let make_stats () =
  let c = Sim.Stats.Counter.create in
  {
    mps_in = c ();
    pkts_in = c ();
    enq_ok = c ();
    enq_drop = c ();
    drop_by_process = c ();
    batch_mps = Sim.Stats.Histogram.create "input.batch_mps";
  }

let register_stats scope stats =
  let r = Telemetry.Scope.register_counter scope in
  r ~name:"mps_in" stats.mps_in;
  r ~name:"pkts_in" stats.pkts_in;
  r ~name:"enqueued" stats.enq_ok;
  r ~name:"queue_drops" stats.enq_drop;
  r ~name:"process_drops" stats.drop_by_process;
  Telemetry.Scope.register_histogram scope ~name:"batch_mps" stats.batch_mps

type t = {
  cm : Cost_model.t;
  enq : Chip_ctx.t -> Squeue.t -> Desc.t -> bool;
  process : Chip_ctx.t -> Packet.Frame.t -> in_port:int -> target;
  process_rest_mp : Chip_ctx.t -> Packet.Frame.t -> unit;
  queue_of : ctx_id:int -> int -> Squeue.t;
  notify : (int -> unit) option;
  idle_backoff_cycles : int;
  scope : Telemetry.Scope.t option;
  recycle : (Packet.Frame.t -> unit) option;
}

(* A dropped frame never reaches the buffer pool, so its release hook
   never fires; hand it back to the frame pool here instead. *)
let recycle_frame t frame =
  match t.recycle with None -> () | Some r -> r frame

(* Drops are the robustness signal the telemetry layer exists for; they
   are rare on the fast path, so an event per drop is affordable. *)
let drop_event t what =
  match t.scope with
  | None -> ()
  | Some scope -> Telemetry.Scope.event scope what

(* I.2/I.3: hardware-mutex protected public queue — the head-pointer
   read-modify-write happens inside the critical section, so queue
   contention serializes contexts here. *)
let enqueue_critical cm ctx =
  Chip_ctx.scratch_read ctx ~bytes:(4 * cm.Cost_model.enqueue_scratch_reads);
  Chip_ctx.exec ctx cm.Cost_model.enqueue_instr;
  Chip_ctx.sram_write ctx ~bytes:(4 * cm.Cost_model.enqueue_sram_writes);
  Chip_ctx.scratch_write ctx ~bytes:(4 * cm.Cost_model.enqueue_scratch_writes)

let enqueue_protected cm ctx q desc =
  Chip_ctx.scratch_read ctx ~bytes:(4 * cm.Cost_model.mutex_scratch_reads);
  if ctx.Chip_ctx.defer then begin
    (* Per-batch charging pays the critical section's time *before* the
       lock: its memory charges queue behind other contexts' whole-burst
       bookings, and inheriting that queue delay while holding the mutex
       would convoy every context enqueueing to this queue. *)
    enqueue_critical cm ctx;
    Chip_ctx.commit ctx;
    Sim.Mutex.lock (Squeue.mutex q);
    let ok = Squeue.push q desc in
    Sim.Mutex.unlock (Squeue.mutex q);
    Chip_ctx.scratch_write ctx ~bytes:(4 * cm.Cost_model.mutex_scratch_writes);
    ok
  end
  else begin
    Sim.Mutex.lock (Squeue.mutex q);
    enqueue_critical cm ctx;
    let ok = Squeue.push q desc in
    Sim.Mutex.unlock (Squeue.mutex q);
    Chip_ctx.scratch_write ctx ~bytes:(4 * cm.Cost_model.mutex_scratch_writes);
    ok
  end

(* I.1: private queue — the tail pointer lives in a register; only the
   entry itself and the readiness bit touch memory. *)
let enqueue_private cm ctx q desc =
  Chip_ctx.exec ctx cm.Cost_model.enqueue_instr;
  Chip_ctx.sram_write ctx ~bytes:(4 * cm.Cost_model.enqueue_sram_writes);
  Chip_ctx.scratch_write ctx ~bytes:4;
  Chip_ctx.commit ctx;
  Squeue.push q desc

(* Batched receive loop (the Snabb link-burst structure): one serialized
   token section programs the receive DMA for a whole burst of MPs, then
   the context processes the burst in a single activation.  Per-MP
   charges (copy, loop bookkeeping, protocol processing, DRAM landing,
   enqueue) are identical to the classic one-MP-per-rotation loop; only
   the token + CSR serial section amortizes across the burst (gated by
   [Cost_model.per_burst] — off forces burst size 1, which IS the
   classic loop).  An idle context parks on its port's rx waiter list
   instead of polling. *)
let spawn_context ?(burst_mps = 16) t chip ~ring ~slot ~ctx_id ~source ~stats =
  let open Ixp in
  let ctx = Chip_ctx.make chip ~ctx_id in
  let cm = t.cm in
  Chip_ctx.set_defer ctx cm.Cost_model.per_burst;
  let burst_mps = if cm.Cost_model.per_burst then max 1 burst_mps else 1 in
  Sim.Token_ring.join ring slot;
  (* Replay emulates an infinitely fast port: the frame's MP sequence
     (first/intermediate/last tags included) repeats forever. *)
  let replay_items =
    match source with
    | Port _ -> [||]
    | Replay f ->
        let f = Packet.Frame.copy f in
        let n = Packet.Mp.count (Packet.Frame.len f) in
        Array.init n (fun index ->
            let tag =
              if n = 1 then Packet.Mp.Only
              else if index = 0 then Packet.Mp.First
              else if index = n - 1 then Packet.Mp.Last
              else Packet.Mp.Intermediate
            in
            (tag, index, f))
  in
  let replay_cursor = ref 0 in
  let batch = Batch.create ~capacity:burst_mps in
  let in_port = match source with Replay _ -> 0 | Port p -> Mac_port.id p in
  let name = Printf.sprintf "input.ctx%d" ctx_id in
  let process_mp tag frame =
    Sim.Stats.Counter.incr stats.mps_in;
    (* FIFO slot to transfer registers + loop bookkeeping, fused. *)
    Chip_ctx.exec ctx
      (cm.Cost_model.input_copy_instr + cm.Cost_model.input_loop_instr);
    match tag with
    | Packet.Mp.First | Packet.Mp.Only -> (
        Sim.Stats.Counter.incr stats.pkts_in;
        (* Circular buffer allocation (shared cursor; the token
           serialization protects it, section 3.2.3). *)
        Chip_ctx.scratch_write ctx
          ~bytes:(4 * cm.Cost_model.alloc_scratch_writes);
        let target = t.process ctx frame ~in_port in
        (* The MP itself lands in DRAM. *)
        Chip_ctx.dram_write ctx ~bytes:Packet.Mp.size;
        match target with
        | Drop_it ->
            Sim.Stats.Counter.incr stats.drop_by_process;
            drop_event t "drop: protocol processing";
            recycle_frame t frame
        | To_queue { qid; out_port; fid } -> (
            (* A stack pool can run dry (the circular pool never does —
               it overwrites); an empty pool drops the packet, the
               backpressure the paper's design trades away for timing
               predictability (section 3.2.3). *)
            let buf = Buffer_pool.alloc_try chip.Chip.buffers frame in
            if buf < 0 then begin
              Sim.Stats.Counter.incr stats.enq_drop;
              drop_event t "drop: buffer pool dry";
              recycle_frame t frame
            end
            else begin
              let desc =
                Desc.take ~buf ~len:(Packet.Frame.len frame) ~in_port
                  ~out_port ~fid
                  ~arrival:(Chip_ctx.now_ps_i ctx)
              in
              let q = t.queue_of ~ctx_id qid in
              if t.enq ctx q desc then begin
                Sim.Stats.Counter.incr stats.enq_ok;
                match t.notify with Some f -> f qid | None -> ()
              end
              else begin
                Buffer_pool.free chip.Chip.buffers buf;
                Desc.release desc;
                Sim.Stats.Counter.incr stats.enq_drop;
                drop_event t ("drop: queue full " ^ Squeue.name q)
              end
            end))
    | Packet.Mp.Intermediate | Packet.Mp.Last ->
        t.process_rest_mp ctx frame;
        Chip_ctx.dram_write ctx ~bytes:Packet.Mp.size
  in
  Sim.Engine.spawn chip.Chip.engine name (fun () ->
      let engine = chip.Chip.engine in
      (* Reusable park cell: the continuation slot and the registration
         closure are built once, so an idle-park/wake cycle allocates
         nothing (the suspend-based form built a waker per park). *)
      let park_cell = Sim.Engine.make_cell engine in
      (match source with
      | Port p ->
          let w = Sim.Engine.cell_waker park_cell in
          Sim.Engine.on_park park_cell (fun () -> Mac_port.park_rx p w)
      | Replay _ -> ());
      let rec loop backoff =
        (* Serialized section: token + port check + burst DMA
           programming, fused into one core access.  The previous
           burst's tail charges (a scratch write or two) ride in
           [pending] into this burst and are paid at its enqueue
           commit; the token hold itself is unaffected (the serial
           charge is horizon-light and the release precedes any
           commit). *)
        ignore (Sim.Token_ring.acquire ring slot);
        Chip_ctx.exec_wait_serial ctx ~instr:cm.Cost_model.input_serial_instr
          ~wait:cm.Cost_model.input_serial_wait;
        (* Under per-batch charging the serial section's time rides in
           [pending] until the batch's next commit point (the enqueue, or
           the next loop top): the rx ring is inspected one serial-window
           early in engine time, but every timestamp downstream uses the
           context's virtual clock.  Classic mode has already waited. *)
        let n =
          match source with
          | Replay _ ->
              Batch.clear batch;
              let items = Array.length replay_items in
              let take = min burst_mps items in
              for _ = 1 to take do
                let i = !replay_cursor in
                replay_cursor := (i + 1) mod items;
                let tag, index, f = replay_items.(i) in
                Batch.push batch ~tag ~index f
              done;
              take
          | Port p -> Batch.fill_from_port batch p ~max:burst_mps
        in
        Sim.Token_ring.release ring slot;
        if n = 0 then begin
          Chip_ctx.exec ctx 4;
          match source with
          | Port _ ->
              (* Park until the port accepts a frame: zero idle events
                 instead of a poll every [idle_backoff_cycles]. *)
              Chip_ctx.commit ctx;
              Sim.Engine.park park_cell;
              loop 1
          | Replay _ ->
              Chip_ctx.wait_cycles ctx backoff;
              (* Deferred backoff must be paid here or the idle loop
                 would spin without advancing time. *)
              Chip_ctx.commit ctx;
              loop (min (backoff * 2) t.idle_backoff_cycles)
        end
        else begin
          Sim.Stats.Histogram.observe_i stats.batch_mps n;
          let span = Sim.Engine.batch_begin engine in
          let frames = ref 0 in
          for i = 0 to n - 1 do
            if Batch.is_head batch i then incr frames;
            process_mp (Batch.tag batch i) (Batch.frame batch i)
          done;
          Sim.Engine.batch_end engine span ~frames:!frames;
          Batch.clear batch;
          loop 1
        end
      in
      loop 1)
