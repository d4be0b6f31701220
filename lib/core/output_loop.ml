type discipline = O1_batch | O2_single | O3_multi

type stats = {
  mps_out : Sim.Stats.Counter.t;
  pkts_out : Sim.Stats.Counter.t;
  stale_bufs : Sim.Stats.Counter.t;
}

let make_stats () =
  let c = Sim.Stats.Counter.create in
  {
    mps_out = c ();
    pkts_out = c ();
    stale_bufs = c ();
  }

let register_stats scope stats =
  let r = Telemetry.Scope.register_counter scope in
  r ~name:"mps_out" stats.mps_out;
  r ~name:"pkts_out" stats.pkts_out;
  r ~name:"stale_buffers" stats.stale_bufs

type t = {
  cm : Cost_model.t;
  discipline : discipline;
  queues : Squeue.t array;
  port_for : Desc.t -> Ixp.Mac_port.t option;
  on_tx : Desc.t -> Packet.Frame.t -> unit;
  scope : Telemetry.Scope.t option;
}

(* The frame sits assembled in its DRAM buffer the whole time it is in
   flight; transmission walks an MP *cursor* over it rather than
   materializing an MP list (the split/join pair allocated a full copy of
   every forwarded packet).  The cursor record itself is allocated once
   per context (per queue under O.3) and refilled in place per packet —
   a fresh record per packet would be minor-heap traffic on the hottest
   path in the system. *)
type in_flight = {
  mutable active : bool; (* holds a packet mid-transmission *)
  mutable desc : Desc.t;
  mutable frame : Packet.Frame.t;
  mutable total : int; (* MPs in the frame *)
  mutable next : int; (* next MP index to transmit *)
  mutable charged : bool; (* current MP's data movement already paid *)
}

let idle_slot () =
  {
    active = false;
    desc = Desc.make ~buf:(-1) ~len:0 ~in_port:(-1) ~out_port:(-1) ~arrival:0 ();
    frame = Packet.Frame.of_bytes Bytes.empty;
    total = 0;
    next = 0;
    charged = false;
  }

(* A queue's head-pointer read, paid before its length is trusted. *)
let head_read t ctx =
  Chip_ctx.scratch_read ctx ~bytes:(4 * t.cm.Cost_model.dequeue_scratch_reads)

(* Dequeue bookkeeping shared by every discipline: pops [q] (known
   non-empty), pays the tail-pointer update and reads the packet out of
   its DRAM buffer, filling [infl] in place.  [false] means the circular
   allocator lapped this packet (a stale buffer) — the descriptor goes
   straight back to the free list. *)
let take_packet t ctx chip stats q infl =
  let desc = Squeue.pop_nonempty q in
  let cm = t.cm in
  Chip_ctx.exec ctx cm.Cost_model.output_pkt_instr;
  Chip_ctx.sram_write ctx ~bytes:(4 * cm.Cost_model.dequeue_sram_writes);
  Chip_ctx.scratch_write ctx ~bytes:(4 * cm.Cost_model.dequeue_scratch_writes);
  match Ixp.Buffer_pool.get chip.Ixp.Chip.buffers desc.Desc.buf with
  | frame ->
      infl.active <- true;
      infl.desc <- desc;
      infl.frame <- frame;
      infl.total <- Packet.Mp.count (Packet.Frame.len frame);
      infl.next <- 0;
      infl.charged <- false;
      true
  | exception Ixp.Buffer_pool.Stale ->
      Sim.Stats.Counter.incr stats.stale_bufs;
      (match t.scope with
      | None -> ()
      | Some scope ->
          Telemetry.Scope.event scope "stale buffer: circular pool lapped");
      Desc.release desc;
      false

(* Finish the already-charged MP whose transmit slot is reserved.  On
   the frame's final MP the packet retires: the frame goes to the wire
   and to [on_tx], then the DRAM buffer is freed — last, because freeing
   hands the frame back to any upstream frame pool — and the descriptor
   is recycled; the slot deactivates ([active] drops) for the next
   dequeue. *)
let finish_mp t chip stats infl ~port =
  let last = infl.next = infl.total - 1 in
  infl.next <- infl.next + 1;
  infl.charged <- false;
  Sim.Stats.Counter.incr stats.mps_out;
  if last then begin
    (match port with
    | Some p ->
        Ixp.Mac_port.transmit_frame p infl.frame
          ~len:(Packet.Frame.len infl.frame)
    | None -> ());
    infl.active <- false;
    Sim.Stats.Counter.incr stats.pkts_out;
    t.on_tx infl.desc infl.frame;
    Ixp.Buffer_pool.free chip.Ixp.Chip.buffers infl.desc.Desc.buf;
    Desc.release infl.desc
  end

(* Loops, not [Array.exists], which builds a closure per call. *)
let queued queues =
  let any = ref false in
  for i = 0 to Array.length queues - 1 do
    if not (Squeue.is_empty queues.(i)) then any := true
  done;
  !any

let any_active slots =
  let any = ref false in
  for i = 0 to Array.length slots - 1 do
    if slots.(i).active then any := true
  done;
  !any

(* The wait points of Figure 6's loop, where a context gives up its
   MicroEngine ([ctx_arb]).  A step resumes the context at its [state]
   and runs to the next one. *)
type state =
  | Request (* ask for the token *)
  | Granted (* woken by the token's grant *)
  | Arrived (* the token has reached this slot: the serial section *)
  | Parking (* the booked charges are paid: park on the queues *)
  | Burst (* the wire pacing wait is over: move the next MP *)
  | Paced (* the current MP's movement is paid: ask its wire for room *)

(* A context's mutable state between steps: allocated once. *)
type ctx_state = {
  mutable state : state;
  mutable span : int; (* the activation's batch span *)
  mutable frames : int; (* frames finished in the activation *)
  mutable mps : int; (* MPs sent in the activation *)
  mutable slot : int; (* the in-flight slot being advanced *)
  mutable soonest : int; (* ps until the soonest blocked wire frees, or -1 *)
}

(* The one transmit loop.  A context keeps one in-flight slot per owned
   queue under O.3 and a single slot under O.1 and O.2; the discipline
   only supplies [select], which fills an idle slot.  Everything else is
   shared: one token acquisition (the serialized FIFO slot-activation
   section) covers a burst of MPs — gated by [Cost_model.per_burst]; off
   forces burst size 1, the classic one-MP-per-rotation Figure 6 loop —
   wire pacing sleeps for the MAC's exact slot-free time
   ([tx_try_pace]) instead of polling, and an idle context parks on its
   queues' push waiters instead of spinning.

   The loop is one step function over [state]; the engine drives it
   with callbacks when no charge can wait by itself, and in a fiber
   otherwise (per-operation charging, a fault-armed memory channel). *)
let spawn_context ?(burst_mps = 16) t chip ~ring ~slot ~ctx_id ~stats =
  let open Ixp in
  let ctx = Chip_ctx.make chip ~ctx_id in
  let cm = t.cm in
  let engine = chip.Chip.engine in
  Chip_ctx.set_defer ctx cm.Cost_model.per_burst;
  let burst_mps = if cm.Cost_model.per_burst then max 1 burst_mps else 1 in
  Sim.Token_ring.join ring slot;
  let name = Printf.sprintf "output.ctx%d" ctx_id in
  let s =
    { state = Request; span = 0; frames = 0; mps = 0; slot = 0; soonest = -1 }
  in
  (* Queue parking.  Each owned queue gets at most one registered
     wrapper at a time ([registered] tracks which); wrappers route
     through [waker] so the cell's waker fires exactly once however many
     queues push in the same instant, and a wrapper left behind on queue
     B after a wake via queue A is a harmless no-op that also clears B's
     registration. *)
  let nq = Array.length t.queues in
  let registered = Array.make nq false in
  let waker = ref (fun () -> ()) in
  let wrappers =
    Array.init nq (fun i () ->
        registered.(i) <- false;
        let w = !waker in
        waker := (fun () -> ());
        w ())
  in
  let park_register w =
    waker := w;
    for i = 0 to nq - 1 do
      if not registered.(i) then begin
        registered.(i) <- true;
        Squeue.add_waiter t.queues.(i) wrappers.(i)
      end
    done;
    (* Work may have arrived between the caller's empty check and
       this registration (memory charges suspend); never sleep past
       it. *)
    if queued t.queues then begin
      let w' = !waker in
      waker := (fun () -> ());
      w' ()
    end
  in
  (* One park cell for every wait: each park installs the registrar of
     what it waits on, both built here once. *)
  let cell = Sim.Engine.make_cell engine in
  let cell_waker = Sim.Engine.cell_waker cell in
  let on_token () = Sim.Token_ring.register ring slot cell_waker in
  let on_queues () = park_register cell_waker in
  let park registrar =
    Sim.Engine.on_park cell registrar;
    Sim.Engine.parked
  in
  (* Slot [i] is filled from queue [i]; it is the packet in flight on
     that queue, and a lower index has priority. *)
  let slots =
    Array.init
      (match t.discipline with O3_multi -> nq | O1_batch | O2_single -> 1)
      (fun _ -> idle_slot ())
  in
  let n = Array.length slots in
  let take i = take_packet t ctx chip stats t.queues.(i) slots.(i) in
  (* The selectors.  Each returns [true] once it has dequeued a packet.
     A queue's length is checked after the head-read charge (which may
     suspend a fiber and let a sibling context drain the queue) and
     right before the option-free pop — nothing can intervene between
     the two.  O.1 and O.2 return at once, uncharged, while their one
     slot is busy, and step past a stale buffer to the next packet. *)
  let select =
    match t.discipline with
    | O1_batch ->
        (* One head read sizes a batch, drained before the next read
           (section 3.4.3's batching). *)
        let batch = ref 0 in
        let rec select () =
          (not slots.(0).active)
          &&
          if !batch > 0 then
            if Squeue.length t.queues.(0) > 0 then begin
              decr batch;
              take 0 || select ()
            end
            else begin
              batch := 0;
              false
            end
          else begin
            head_read t ctx;
            let ready = Squeue.length t.queues.(0) in
            ready > 0
            && begin
                 batch := ready - 1;
                 take 0 || select ()
               end
          end
        in
        select
    | O2_single ->
        (* A head read per packet. *)
        let rec select () =
          (not slots.(0).active)
          && begin
               head_read t ctx;
               Squeue.length t.queues.(0) > 0 && (take 0 || select ())
             end
        in
        select
    | O3_multi ->
        (* One readiness bit-array read summarizes every queue (section
           3.4.3), then the first ready queue with an idle slot pays
           its own head read.  A stale buffer still counts as a
           selection. *)
        let rec scan i =
          i < n
          &&
          if slots.(i).active || Squeue.is_empty t.queues.(i) then
            scan (i + 1)
          else begin
            head_read t ctx;
            if Squeue.length t.queues.(i) > 0 then begin
              ignore (take i : bool);
              true
            end
            else scan (i + 1)
          end
        in
        fun () ->
          Chip_ctx.scratch_read ctx
            ~bytes:(4 * cm.Cost_model.o3_scratch_reads);
          Chip_ctx.exec ctx cm.Cost_model.o3_select_instr;
          scan 0
  in
  (* Where a context decides to sleep is the one thing besides [select]
     the disciplines do differently.  O.1 and O.2 sleep when the head
     read that opens an activation finds nothing (the span opens only
     after it); O.3 opens every activation's span at once and sleeps
     when a burst leaves nothing in flight and its free readiness peek
     shows nothing queued. *)
  let indirect = t.discipline = O3_multi in
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
    | Parking ->
        s.state <- Request;
        park on_queues
    | Burst -> burst ()
    | Paced -> paced ()
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
  (* The serialized FIFO slot-activation section.  The previous burst's
     tail charges ride in [pending] into this burst and are paid at the
     next MP's pre-pace commit; the token hold is unaffected (the serial
     charge is horizon-light and the release precedes any commit).
     Under per-batch charging the slot-activation time rides in
     [pending] until the MP's pre-pace commit; classic mode has already
     waited, so the token hold covers the full section. *)
  and serial () =
    Sim.Token_ring.hold ring;
    Chip_ctx.exec_wait_serial ctx ~instr:cm.Cost_model.output_serial_instr
      ~wait:cm.Cost_model.output_serial_wait;
    Sim.Token_ring.release ring slot;
    if indirect || slots.(0).active || select () then begin
      s.span <- Sim.Engine.batch_begin engine;
      s.frames <- 0;
      s.mps <- 0;
      burst ()
    end
    else begin
      s.state <- Parking;
      commit ()
    end
  (* One burst: send while the budget lasts; when no wire has room,
     start a packet on an idle slot, or sleep until the soonest wire
     frees.  Ends when the budget is spent or nothing is in flight and
     nothing can be selected. *)
  and burst () =
    if s.mps < burst_mps then begin
      s.slot <- 0;
      s.soonest <- -1;
      advance ()
    end
    else finish ()
  (* Move one MP of the highest-priority in-flight packet whose wire has
     room.  One MP's transmission is split around the wire-pacing check:
     the data movement (DRAM buffer to output FIFO, then slot enable) is
     charged once and committed *before* the MAC is asked for a slot, so
     the frame hits the wire only after its bytes have really moved —
     and a pace retry never recharges. *)
  and advance () =
    let i = s.slot in
    if i >= n then begin
      let r = s.soonest in
      if select () then burst ()
      else if r >= 0 then begin
        s.state <- Burst;
        r
      end
      else finish ()
    end
    else begin
      let infl = slots.(i) in
      if not infl.active then begin
        s.slot <- i + 1;
        advance ()
      end
      else begin
        if not infl.charged then begin
          Chip_ctx.dram_read ctx ~bytes:Packet.Mp.size;
          Chip_ctx.exec ctx cm.Cost_model.output_mp_instr;
          infl.charged <- true
        end;
        s.state <- Paced;
        commit ()
      end
    end
  and paced () =
    let infl = slots.(s.slot) in
    let port = t.port_for infl.desc in
    let last = infl.next = infl.total - 1 in
    let wait =
      match port with None -> -1 | Some p -> Mac_port.tx_try_pace p ~last
    in
    if wait < 0 then begin
      finish_mp t chip stats infl ~port;
      s.mps <- s.mps + 1;
      if last then s.frames <- s.frames + 1;
      burst ()
    end
    else begin
      if s.soonest < 0 || wait < s.soonest then s.soonest <- wait;
      s.slot <- s.slot + 1;
      advance ()
    end
  and finish () =
    Sim.Engine.batch_end engine s.span ~frames:s.frames;
    if indirect && not (any_active slots || queued t.queues) then begin
      s.state <- Parking;
      commit ()
    end
    else begin
      s.state <- Request;
      step ()
    end
  in
  Sim.Engine.start_steps cell name ~suspends:(Chip_ctx.charges_wait ctx) step
