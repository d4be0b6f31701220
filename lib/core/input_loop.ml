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

type enqueue =
  | Private
  | Protected
  | Custom of (Chip_ctx.t -> Squeue.t -> Desc.t -> bool)

type t = {
  cm : Cost_model.t;
  enq : enqueue;
  process : Chip_ctx.t -> Packet.Frame.t -> in_port:int -> target;
  queue_of : int -> Squeue.t;
  notify : (int -> unit) option;
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

(* The protected enqueue in two halves around its commit, so a stepped
   context can wait out the commit and the mutex between them.  Per-batch
   charging books the critical section's time *before* the lock: its
   memory charges queue behind other contexts' whole-burst bookings, and
   inheriting that queue delay while holding the mutex would convoy
   every context enqueueing to this queue.  Per-operation charging pays
   it inside the lock. *)
let protected_before cm ctx =
  Chip_ctx.scratch_read ctx ~bytes:(4 * cm.Cost_model.mutex_scratch_reads);
  if ctx.Chip_ctx.defer then enqueue_critical cm ctx

(* Holding the queue's mutex: push, unlock, and the release write. *)
let protected_locked cm ctx q desc =
  if not ctx.Chip_ctx.defer then enqueue_critical cm ctx;
  let ok = Squeue.push q desc in
  Sim.Mutex.unlock (Squeue.mutex q);
  Chip_ctx.scratch_write ctx ~bytes:(4 * cm.Cost_model.mutex_scratch_writes);
  ok

let enqueue_protected cm ctx q desc =
  protected_before cm ctx;
  Chip_ctx.commit ctx;
  Sim.Mutex.lock (Squeue.mutex q);
  protected_locked cm ctx q desc

(* I.1: private queue — the tail pointer lives in a register; only the
   entry itself and the readiness bit touch memory.  The push follows
   the commit. *)
let private_before cm ctx =
  Chip_ctx.exec ctx cm.Cost_model.enqueue_instr;
  Chip_ctx.sram_write ctx ~bytes:(4 * cm.Cost_model.enqueue_sram_writes);
  Chip_ctx.scratch_write ctx ~bytes:4

(* The wait points of Figure 5's loop, where a context gives up its
   MicroEngine ([ctx_arb]).  A step resumes the context at its [state]
   and runs to the next one. *)
type state =
  | Request (* ask for the token *)
  | Granted (* woken by the token's grant *)
  | Arrived (* the token has reached this slot: the serial section *)
  | Idle (* nothing received; the idle charge is paid: park on the port *)
  | Lock (* the enqueue's charges are paid: take the queue mutex *)
  | Locked (* holding the queue mutex: push *)
  | Push (* the private enqueue's charges are paid: push *)

(* A context's mutable state between steps: allocated once, so a step
   allocates nothing of its own. *)
type ctx_state = {
  mutable state : state;
  mutable n : int; (* MPs in the burst *)
  mutable next : int; (* the burst's next MP *)
  mutable frames : int; (* packet heads seen in the burst *)
  mutable span : int; (* the burst's batch span *)
  mutable qid : int; (* the enqueue in progress: its queue ... *)
  mutable desc : Desc.t; (* ... and its descriptor *)
}

(* Batched receive loop (the Snabb link-burst structure): one serialized
   token section programs the receive DMA for a whole burst of MPs, then
   the context processes the burst in a single activation.  Per-MP
   charges (copy, loop bookkeeping, protocol processing, DRAM landing,
   enqueue) are identical to the classic one-MP-per-rotation loop; only
   the token + CSR serial section amortizes across the burst (gated by
   [Cost_model.per_burst] — off forces burst size 1, which IS the
   classic loop).  An idle context parks on its port's rx waiter list
   instead of polling.

   The loop is one step function over [state]; the engine drives it
   with callbacks when no charge can wait by itself, and in a fiber
   otherwise (per-operation charging, a fault-armed memory channel, or
   a [Custom] enqueue). *)
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
  let engine = chip.Chip.engine in
  let s =
    {
      state = Request;
      n = 0;
      next = 0;
      frames = 0;
      span = 0;
      qid = 0;
      desc =
        Desc.make ~buf:(-1) ~len:0 ~in_port:(-1) ~out_port:(-1) ~arrival:0 ();
    }
  in
  (* One park cell for every wait: each park installs the registrar of
     what it waits on, all built here once. *)
  let cell = Sim.Engine.make_cell engine in
  let waker = Sim.Engine.cell_waker cell in
  let on_token () = Sim.Token_ring.register ring slot waker in
  let on_port =
    match source with
    | Port p -> fun () -> Mac_port.park_rx p waker
    | Replay _ -> ignore
  in
  let on_mutex () =
    Sim.Mutex.register (Squeue.mutex (t.queue_of s.qid)) waker
  in
  let park registrar =
    Sim.Engine.on_park cell registrar;
    Sim.Engine.parked
  in
  (* One MP up to its enqueue; [true] when a descriptor waits in [s] to
     be enqueued. *)
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
            recycle_frame t frame;
            false
        | To_queue { qid; out_port; fid } ->
            (* A stack pool can run dry (the circular pool never does —
               it overwrites); an empty pool drops the packet, the
               backpressure the paper's design trades away for timing
               predictability (section 3.2.3). *)
            let buf = Buffer_pool.alloc_try chip.Chip.buffers frame in
            if buf < 0 then begin
              Sim.Stats.Counter.incr stats.enq_drop;
              drop_event t "drop: buffer pool dry";
              recycle_frame t frame;
              false
            end
            else begin
              s.qid <- qid;
              s.desc <-
                Desc.take ~buf ~len:(Packet.Frame.len frame) ~in_port
                  ~out_port ~fid
                  ~arrival:(Chip_ctx.now_ps_i ctx);
              true
            end)
    | Packet.Mp.Intermediate | Packet.Mp.Last ->
        Chip_ctx.dram_write ctx ~bytes:Packet.Mp.size;
        false
  in
  (* The enqueue's outcome. *)
  let enqueued ok =
    let qid = s.qid and desc = s.desc in
    if ok then begin
      Sim.Stats.Counter.incr stats.enq_ok;
      match t.notify with Some f -> f qid | None -> ()
    end
    else begin
      Buffer_pool.free chip.Chip.buffers desc.Desc.buf;
      Desc.release desc;
      Sim.Stats.Counter.incr stats.enq_drop;
      drop_event t ("drop: queue full " ^ Squeue.name (t.queue_of qid))
    end
  in
  let rec step () =
    match s.state with
    | Request ->
        let d = Sim.Token_ring.request ring slot in
        if d < 0 then begin
          s.state <- Granted;
          park on_token
        end
        else arrive d
    | Granted -> arrive (Sim.Token_ring.arrival ring)
    | Arrived -> serial ()
    | Idle ->
        s.state <- Request;
        park on_port
    | Lock ->
        if Sim.Mutex.try_lock (Squeue.mutex (t.queue_of s.qid)) then locked ()
        else begin
          s.state <- Locked;
          park on_mutex
        end
    | Locked -> locked ()
    | Push ->
        enqueued (Squeue.push (t.queue_of s.qid) s.desc);
        burst ()
  (* Pay what is booked, then go on at [s.state]: at once when nothing
     is pending, so a zero charge never yields. *)
  and commit () =
    let d = Chip_ctx.commit_delay ctx in
    if d > 0 then d else step ()
  and arrive d =
    if d > 0 then begin
      s.state <- Arrived;
      d
    end
    else serial ()
  (* Serialized section: token + port check + burst DMA programming,
     fused into one core access.  The previous burst's tail charges (a
     scratch write or two) ride in [pending] into this burst and are paid
     at its enqueue commit; the token hold itself is unaffected (the
     serial charge is horizon-light and the release precedes any
     commit). *)
  and serial () =
    Sim.Token_ring.hold ring;
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
      (* Only a port comes up empty (a replayed frame has at least one
         MP): park until it accepts a frame, zero idle events instead of
         a poll. *)
      Chip_ctx.exec ctx 4;
      s.state <- Idle;
      commit ()
    end
    else begin
      Sim.Stats.Histogram.observe_i stats.batch_mps n;
      s.span <- Sim.Engine.batch_begin engine;
      s.frames <- 0;
      s.n <- n;
      s.next <- 0;
      burst ()
    end
  and burst () =
    let i = s.next in
    if i < s.n then begin
      s.next <- i + 1;
      if Batch.is_head batch i then s.frames <- s.frames + 1;
      if process_mp (Batch.tag batch i) (Batch.frame batch i) then
        match t.enq with
        | Protected ->
            protected_before cm ctx;
            s.state <- Lock;
            commit ()
        | Private ->
            private_before cm ctx;
            s.state <- Push;
            commit ()
        | Custom enq ->
            enqueued (enq ctx (t.queue_of s.qid) s.desc);
            burst ()
      else burst ()
    end
    else begin
      Sim.Engine.batch_end engine s.span ~frames:s.frames;
      Batch.clear batch;
      s.state <- Request;
      step ()
    end
  and locked () =
    enqueued (protected_locked cm ctx (t.queue_of s.qid) s.desc);
    burst ()
  in
  let suspends =
    Chip_ctx.charges_wait ctx
    || match t.enq with Custom _ -> true | Private | Protected -> false
  in
  Sim.Engine.start_steps cell name ~suspends step
