type discipline = O1_batch | O2_single | O3_multi

type stats = {
  mps_out : Sim.Stats.Counter.t;
  pkts_out : Sim.Stats.Counter.t;
  stale_bufs : Sim.Stats.Counter.t;
}

let make_stats () =
  let c = Sim.Stats.Counter.create in
  {
    mps_out = c "output.mps";
    pkts_out = c "output.pkts";
    stale_bufs = c "output.stale_buffers";
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
  on_tx : (Desc.t -> Packet.Frame.t -> unit) option;
  idle_backoff_cycles : int;
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

(* Dequeue bookkeeping shared by every discipline: select_queue charges are
   paid by the caller; this pays the tail-pointer update and reads the
   packet out of its DRAM buffer, filling [infl] in place.  [false] means
   the circular allocator lapped this packet (a stale buffer) — the
   descriptor goes straight back to the free list. *)
let take_packet t ctx chip stats desc infl =
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

(* One MP's transmission is split around the wire-pacing check: the data
   movement (DRAM buffer to output FIFO, then slot enable) is charged
   once and committed *before* the MAC is asked for a slot, so the frame
   hits the wire only after its bytes have really moved — and the pace
   retry loop never recharges. *)
let charge_mp t ctx inflight =
  if not inflight.charged then begin
    Chip_ctx.dram_read ctx ~bytes:Packet.Mp.size;
    Chip_ctx.exec ctx t.cm.Cost_model.output_mp_instr;
    inflight.charged <- true
  end;
  Chip_ctx.commit ctx

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
    (match t.on_tx with
    | Some f -> f infl.desc infl.frame
    | None -> ());
    Ixp.Buffer_pool.free chip.Ixp.Chip.buffers infl.desc.Desc.buf;
    Desc.release infl.desc
  end

(* Batched transmit loop.  One token acquisition (the serialized FIFO
   slot-activation section) covers a whole burst of MPs — gated by
   [Cost_model.per_burst]; off forces burst size 1, the classic
   one-MP-per-rotation Figure 6 loop.  Wire pacing uses the MAC's exact
   slot-free time ([tx_try_pace]) instead of exponential polling, and
   an idle context parks on its queues' push waiters instead of
   spinning. *)
let spawn_context ?(burst_mps = 16) t chip ~ring ~slot ~ctx_id ~stats =
  let open Ixp in
  let ctx = Chip_ctx.make chip ~ctx_id in
  let cm = t.cm in
  Chip_ctx.set_defer ctx cm.Cost_model.per_burst;
  let burst_mps = if cm.Cost_model.per_burst then max 1 burst_mps else 1 in
  Sim.Token_ring.join ring slot;
  let batch = ref 0 in
  let name = Printf.sprintf "output.ctx%d" ctx_id in
  let serial_section () =
    (* The previous burst's tail charges ride in [pending] into this
       burst and are paid at the next MP's pre-pace commit; the token
       hold is unaffected (the serial charge is horizon-light and the
       release precedes any commit). *)
    ignore (Sim.Token_ring.acquire ring slot);
    Chip_ctx.exec_wait_serial ctx ~instr:cm.Cost_model.output_serial_instr
      ~wait:cm.Cost_model.output_serial_wait;
    (* Under per-batch charging the slot-activation time rides in
       [pending] until the MP's pre-pace commit; classic mode has
       already waited, so the token hold covers the full section. *)
    Sim.Token_ring.release ring slot
  in
  (* Queue parking shared by both loop shapes.  Each owned queue gets at
     most one registered wrapper at a time ([registered] tracks which);
     wrappers route through [waker] so the engine's one-shot waker fires
     exactly once however many queues push in the same instant, and a
     wrapper left behind on queue B after a wake via queue A is a
     harmless no-op that also clears B's registration.  Parking is the
     idle path, so the suspend closure cost is irrelevant — but the
     registration function is still built once, not per park. *)
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
    let any = ref false in
    for i = 0 to nq - 1 do
      if not (Squeue.is_empty t.queues.(i)) then any := true
    done;
    if !any then begin
      let w' = !waker in
      waker := (fun () -> ());
      w' ()
    end
  in
  (* Reusable park cell: the registration closure wraps [park_register]
     with the cell's permanent waker once, so an idle-park/wake cycle
     costs only the suspension (the suspend-based form built a fired
     ref, a waker, and a handler closure per park). *)
  let park_cell = Sim.Engine.make_cell chip.Chip.engine in
  let park_waker = Sim.Engine.cell_waker park_cell in
  Sim.Engine.on_park park_cell (fun () -> park_register park_waker);
  let park () =
    Chip_ctx.commit ctx;
    Sim.Engine.park park_cell
  in
  let single_queue_loop () =
    let q = t.queues.(0) in
    let infl = idle_slot () in
    let frames = ref 0 in
    let mps = ref 0 in
    (* Select + dequeue: true when [infl] holds a packet.  The length
       check sits between the scratch-read charge (which may suspend and
       let a sibling context drain the queue) and the option-free pop —
       nothing can intervene between the two. *)
    let rec next_packet () =
      let got =
        match t.discipline with
        | O1_batch ->
            if !batch > 0 then begin
              if Squeue.length q > 0 then begin
                decr batch;
                true
              end
              else begin
                batch := 0;
                false
              end
            end
            else begin
              Chip_ctx.scratch_read ctx ~bytes:4;
              let ready = Squeue.length q in
              if ready = 0 then false
              else begin
                batch := ready - 1;
                true
              end
            end
        | O2_single | O3_multi ->
            Chip_ctx.scratch_read ctx ~bytes:4;
            Squeue.length q > 0
      in
      got
      && begin
           let desc = Squeue.pop_nonempty q in
           take_packet t ctx chip stats desc infl
           || next_packet () (* stale buffer: try the next *)
         end
    in
    let rec activation () =
      serial_section ();
      if infl.active || next_packet () then begin
        let engine = chip.Chip.engine in
        let span = Sim.Engine.batch_begin engine in
        frames := 0;
        mps := 0;
        let rec step () =
          if !mps >= burst_mps then
            Sim.Engine.batch_end engine span ~frames:!frames
          else if not infl.active then begin
            if next_packet () then step ()
            else Sim.Engine.batch_end engine span ~frames:!frames
          end
          else advance ()
        and advance () =
          if infl.next >= infl.total then begin
            (* Zero-MP frame (never on real traffic): just retire it. *)
            infl.active <- false;
            incr frames;
            step ()
          end
          else begin
            charge_mp t ctx infl;
            let port = t.port_for infl.desc in
            let wait =
              match port with
              | None -> -1
              | Some p ->
                  Mac_port.tx_try_pace p ~last:(infl.next = infl.total - 1)
            in
            if wait < 0 then begin
              let done_ = infl.next = infl.total - 1 in
              finish_mp t chip stats infl ~port;
              incr mps;
              if done_ then incr frames;
              step ()
            end
            else begin
              (* Sleep exactly until the wire frees the slot. *)
              Sim.Engine.wait_in chip.Chip.engine wait;
              advance ()
            end
          end
        in
        step ();
        activation ()
      end
      else begin
        park ();
        activation ()
      end
    in
    activation ()
  in
  let multi_queue_loop () =
    let n = Array.length t.queues in
    let currents = Array.init n (fun _ -> idle_slot ()) in
    let frames = ref 0 in
    let mps = ref 0 in
    let soonest = ref max_int in
    let rec activation () =
      serial_section ();
      let engine = chip.Chip.engine in
      let span = Sim.Engine.batch_begin engine in
      frames := 0;
      mps := 0;
      let close () = Sim.Engine.batch_end engine span ~frames:!frames in
      (* Advance the highest-priority in-flight packet whose wire has
         room.  Int-coded result: -2 = sent an MP, -1 = nothing in
         flight, otherwise the soonest ps until a blocked wire frees. *)
      let try_advance () =
        soonest := max_int;
        let rec go i =
          if i >= n then if !soonest = max_int then -1 else !soonest
          else begin
            let infl = currents.(i) in
            if not infl.active then go (i + 1)
            else begin
              charge_mp t ctx infl;
              let port = t.port_for infl.desc in
              let wait =
                match port with
                | None -> -1
                | Some p ->
                    Mac_port.tx_try_pace p ~last:(infl.next = infl.total - 1)
              in
              if wait < 0 then begin
                let done_ = infl.next = infl.total - 1 in
                finish_mp t chip stats infl ~port;
                incr mps;
                if done_ then incr frames;
                -2
              end
              else begin
                if wait < !soonest then soonest := wait;
                go (i + 1)
              end
            end
          end
        in
        go 0
      in
      (* Start a packet on an idle slot: one readiness bit-array read
         summarizes every queue (section 3.4.3), then the chosen queue
         pays its own head read. *)
      let try_start () =
        Chip_ctx.scratch_read ctx ~bytes:(4 * cm.Cost_model.o3_scratch_reads);
        Chip_ctx.exec ctx cm.Cost_model.o3_select_instr;
        let rec scan i =
          if i >= n then false
          else if currents.(i).active || Squeue.is_empty t.queues.(i) then
            scan (i + 1)
          else begin
            Chip_ctx.scratch_read ctx ~bytes:4;
            if Squeue.length t.queues.(i) > 0 then begin
              let desc = Squeue.pop_nonempty t.queues.(i) in
              ignore (take_packet t ctx chip stats desc currents.(i) : bool);
              true
            end
            else scan (i + 1)
          end
        in
        scan 0
      in
      let rec step () =
        if !mps >= burst_mps then close ()
        else begin
          let r = try_advance () in
          if r = -2 then step ()
          else if r = -1 then begin
            if try_start () then step () else close ()
          end
          else if try_start () then step ()
          else begin
            Sim.Engine.wait_in chip.Chip.engine r;
            step ()
          end
        end
      in
      step ();
      let any_inflight = ref false in
      for i = 0 to n - 1 do
        if currents.(i).active then any_inflight := true
      done;
      let any_queued =
        Array.exists (fun q -> not (Squeue.is_empty q)) t.queues
      in
      if (not !any_inflight) && not any_queued then park ();
      activation ()
    in
    activation ()
  in
  Sim.Engine.spawn chip.Chip.engine name (fun () ->
      match t.discipline with
      | O1_batch | O2_single -> single_queue_loop ()
      | O3_multi -> multi_queue_loop ())
