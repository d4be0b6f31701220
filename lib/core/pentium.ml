type stats = {
  processed : Sim.Stats.Counter.t;
  dropped : Sim.Stats.Counter.t;
}

type t = {
  cm : Cost_model.t;
  chip : Ixp.Chip.t;
  clock : Sim.Engine.Clock.clock;
  from_sa : Strongarm.payload Ixp.I2o.t;
  returns : Desc.t Sim.Mailbox.t;
  lookup_fid : int -> Classifier.entry option;
  sched : Strongarm.payload Psched.t;
  clients : (int, Strongarm.payload Psched.client) Hashtbl.t;
  default_client : Strongarm.payload Psched.client;
  stats : stats;
  mutable busy_ps : int64;
  mutable faults : Fault.Injector.t option;
}

let create chip cm ~from_sa ~returns ~lookup_fid () =
  let sched = Psched.create () in
  {
    cm;
    chip;
    clock = chip.Ixp.Chip.pentium_clock;
    from_sa;
    returns;
    lookup_fid;
    sched;
    clients = Hashtbl.create 16;
    default_client = Psched.add_client sched ~name:"best-effort" ~share:1.0;
    stats =
      {
        processed = Sim.Stats.Counter.create ();
        dropped = Sim.Stats.Counter.create ();
      };
    busy_ps = 0L;
    faults = None;
  }

let set_faults t inj = t.faults <- Some inj

let add_flow_client t ~fid ~name ~share =
  Hashtbl.replace t.clients fid (Psched.add_client t.sched ~name ~share)

let remove_flow_client t ~fid =
  match Hashtbl.find_opt t.clients fid with
  | None -> ()
  | Some c ->
      Psched.remove_client t.sched c;
      Hashtbl.remove t.clients fid

let client_for t fid =
  match Hashtbl.find_opt t.clients fid with
  | Some c -> c
  | None -> t.default_client

let busy t f =
  let e = t.chip.Ixp.Chip.engine in
  let t0 = Sim.Engine.clock_i e in
  let r = f () in
  t.busy_ps <-
    Int64.add t.busy_ps (Int64.of_int (Sim.Engine.clock_i e - t0));
  r

let exec t n = Sim.Engine.Clock.wait_cycles t.chip.Ixp.Chip.engine t.clock n

let process t (p : Strongarm.payload) =
  busy t (fun () ->
      exec t t.cm.Cost_model.pe_loop_instr;
      (* Touch the payload beyond the 64-byte head + 8-byte routing header
         (read it, write it back): what makes big packets expensive on the
         host (Table 4).  The head itself is in cache from the queue
         manipulation. *)
      let touch =
        int_of_float
          (Float.round
             (t.cm.Cost_model.pe_touch_cycles_per_byte
             *. float_of_int (max 0 (p.bytes - 72))))
      in
      exec t touch;
      let fwd_cycles, verdict =
        match t.lookup_fid p.desc.Desc.fid with
        | Some e ->
            exec t e.Classifier.fwdr.Forwarder.host_cycles;
            ( e.Classifier.fwdr.Forwarder.host_cycles,
              e.Classifier.fwdr.Forwarder.action ~state:e.Classifier.state
                p.frame ~in_port:p.desc.Desc.in_port )
        | None -> (0, Forwarder.Forward_routed)
      in
      let drop () =
        Sim.Stats.Counter.incr t.stats.dropped;
        Ixp.Buffer_pool.free t.chip.Ixp.Chip.buffers p.desc.Desc.buf
      in
      (match verdict with
      | Forwarder.Drop -> drop ()
      | Forwarder.Forward port ->
          p.desc.Desc.out_port <- port;
          Sim.Stats.Counter.incr t.stats.processed;
          (* DMA the packet back down; the descriptor lands in the
             StrongARM's return ring via a posted write. *)
          Ixp.Pci.dma_async t.chip.Ixp.Chip.pci ~bytes:p.bytes
            ~on_done:(fun () -> Sim.Mailbox.put t.returns p.desc);
          Ixp.Pci.pio_write t.chip.Ixp.Chip.pci ~clock:t.clock
      | Forwarder.Forward_routed | Forwarder.Continue ->
          Sim.Stats.Counter.incr t.stats.processed;
          Ixp.Pci.dma_async t.chip.Ixp.Chip.pci ~bytes:p.bytes
            ~on_done:(fun () -> Sim.Mailbox.put t.returns p.desc);
          Ixp.Pci.pio_write t.chip.Ixp.Chip.pci ~clock:t.clock
      | Forwarder.Divert _ ->
          (* Top of the hierarchy: nowhere further. *)
          drop ());
      fwd_cycles + touch + t.cm.Cost_model.pe_loop_instr)

let spawn t chip =
  Sim.Engine.spawn chip.Ixp.Chip.engine "pentium" (fun () ->
      let ingest p =
        let c = client_for t p.Strongarm.desc.Desc.fid in
        Psched.enqueue t.sched c p
      in
      let pci = t.chip.Ixp.Chip.pci in
      let recv_overhead =
        Int64.add (Ixp.Pci.pio_read_ps pci) (Ixp.Pci.pio_write_ps pci)
      in
      (* Drain a bounded batch from the full queue so the
         proportional-share scheduler arbitrates over a real backlog (not
         the I2O FIFO's arrival order) while ingest can never livelock
         processing out. *)
      let rec drain k =
        if k > 0 then
          match
            busy t (fun () ->
                Ixp.I2o.try_recv t.from_sa ~consumer_clock:t.clock)
          with
          | Some p ->
              ingest p;
              drain (k - 1)
          | None -> ()
      in
      let rec loop () =
        (match t.faults with
        | Some inj when Fault.Injector.fires inj Pe_crash ->
            (* Host crash-and-restart: packets already in the I2O queues
               and scheduler backlog survive in memory; service just
               pauses for the reboot. *)
            Sim.Engine.wait_in t.chip.Ixp.Chip.engine
              (Int64.to_int
                 (Sim.Engine.of_seconds
                    ((Fault.Injector.scenario inj).Fault.Scenario.pe_restart_us
                    *. 1e-6)))
        | _ -> ());
        (if Psched.backlog t.sched = 0 then begin
           (* Idle: block on the full queue.  Only the PIO stalls count as
              busy time, not the wait for a packet to arrive. *)
           let p = Ixp.I2o.recv t.from_sa ~consumer_clock:t.clock in
           t.busy_ps <- Int64.add t.busy_ps recv_overhead;
           ingest p;
           drain 16
         end);
        (match Psched.next t.sched with
        | None -> ()
        | Some (c, p) ->
            let work = process t p in
            Psched.charge t.sched c (float_of_int work));
        loop ()
      in
      loop ())

let spawn_control t chip ~name ~period_us ~cycles f =
  let engine = chip.Ixp.Chip.engine in
  Sim.Engine.spawn engine ("control." ^ name) (fun () ->
      let period = Int64.to_int (Sim.Engine.of_seconds (period_us *. 1e-6)) in
      let rec tick () =
        Sim.Engine.wait_in engine period;
        busy t (fun () -> exec t cycles);
        if f () then tick ()
      in
      tick ())

let stats t = t.stats

let register_telemetry scope t =
  Telemetry.Scope.register_counter scope ~name:"processed" t.stats.processed;
  Telemetry.Scope.register_counter scope ~name:"dropped" t.stats.dropped;
  Telemetry.Scope.gauge_int scope "busy_ps" (fun () ->
      Int64.to_int t.busy_ps);
  Psched.register_telemetry (Telemetry.Scope.sub scope "sched") t.sched

let busy_cycles t = Sim.Engine.Clock.cycles_of_ps t.clock t.busy_ps

let spare_cycles_per_packet t =
  let n = Sim.Stats.Counter.value t.stats.processed in
  if n = 0 then 0.
  else begin
    let elapsed = Sim.Engine.time t.chip.Ixp.Chip.engine in
    let total_cycles = Sim.Engine.Clock.cycles_of_ps t.clock elapsed in
    let rate = float_of_int n in
    (total_cycles /. rate) -. (busy_cycles t /. rate)
  end

let served_by_fid t =
  Hashtbl.fold
    (fun fid c acc -> (fid, Psched.client_name c, Psched.served c) :: acc)
    t.clients
    [ (-1, "best-effort", Psched.served t.default_client) ]
