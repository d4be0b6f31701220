type payload = { desc : Desc.t; frame : Packet.Frame.t; bytes : int }

type wakeup = Polling | Interrupts

type stats = {
  local_done : Sim.Stats.Counter.t;
  bridged : Sim.Stats.Counter.t;
  returned : Sim.Stats.Counter.t;
  dropped : Sim.Stats.Counter.t;
  route_misses : Sim.Stats.Counter.t;
  icmp_sent : Sim.Stats.Counter.t;
  stale_bufs : Sim.Stats.Counter.t;
}

let make_stats () =
  let c = Sim.Stats.Counter.create in
  {
    local_done = c ();
    bridged = c ();
    returned = c ();
    dropped = c ();
    route_misses = c ();
    icmp_sent = c ();
    stale_bufs = c ();
  }

type t = {
  cm : Cost_model.t;
  ctx : Chip_ctx.t;
  wakeup : wakeup;
  local_q : Squeue.t;
  pe_qs : Squeue.t array;
  to_pe : payload Ixp.I2o.t;
  returns : Desc.t Sim.Mailbox.t;
  lookup_fid : int -> Classifier.entry option;
  routes : Iproute.Table.t;
  out_enqueue : Chip_ctx.t -> Desc.t -> bool;
  read_buffer : Desc.t -> Packet.Frame.t option;
  full_copy : bool;
  icmp_addr : (int -> Packet.Ipv4.addr) option;
  work_signal : Sim.Semaphore.t;
  stats : stats;
  mutable busy_ps : int; (* native-int ps; see [busy] *)
  mutable pe_rr : int; (* round-robin cursor over the Pentium-bound queues *)
  mutable faults : Fault.Injector.t option;
}

(* Pentium-bound flow queues, served round-robin. *)
let pe_flow_queues = 4

let create chip cm ?(wakeup = Polling) ?(pe_buffers = 128) ?(full_copy = false)
    ?icmp_addr ~lookup_fid ~routes ~out_enqueue () =
  {
    cm;
    ctx = Chip_ctx.make_cpu chip chip.Ixp.Chip.me_clock;
    wakeup;
    local_q = Squeue.create ~name:"sa.local" ~capacity:4096 ();
    pe_qs =
      Array.init pe_flow_queues (fun i ->
          Squeue.create ~name:(Printf.sprintf "sa.pe%d" i) ~capacity:4096 ());
    to_pe =
      Ixp.I2o.create chip.Ixp.Chip.pci ~buffers:pe_buffers ();
    returns = Sim.Mailbox.create ();
    lookup_fid;
    routes;
    out_enqueue;
    read_buffer = (fun d -> Ixp.Buffer_pool.read chip.Ixp.Chip.buffers d.Desc.buf);
    full_copy;
    icmp_addr;
    work_signal = Sim.Semaphore.create 0;
    stats = make_stats ();
    busy_ps = 0;
    pe_rr = 0;
    faults = None;
  }

let set_faults t inj = t.faults <- Some inj

let register_telemetry scope t =
  let r = Telemetry.Scope.register_counter scope in
  r ~name:"local_done" t.stats.local_done;
  r ~name:"bridged" t.stats.bridged;
  r ~name:"returned" t.stats.returned;
  r ~name:"dropped" t.stats.dropped;
  r ~name:"route_misses" t.stats.route_misses;
  r ~name:"icmp_sent" t.stats.icmp_sent;
  r ~name:"stale_buffers" t.stats.stale_bufs;
  let queue q =
    Squeue.register_telemetry
      (Telemetry.Scope.sub scope "queue" ~labels:[ ("name", Squeue.name q) ])
      q
  in
  queue t.local_q;
  Array.iter queue t.pe_qs

(* Native-int timestamps: this brackets every slow-path dequeue and
   process step, and the int64 form boxed four values per call. *)
let busy t f =
  let e = t.ctx.Chip_ctx.chip.Ixp.Chip.engine in
  let t0 = Sim.Engine.clock_i e in
  let r = f () in
  t.busy_ps <- t.busy_ps + (Sim.Engine.clock_i e - t0);
  r

let busy_cycles t =
  Sim.Engine.Clock.cycles_of_ps t.ctx.Chip_ctx.chip.Ixp.Chip.me_clock
    (Int64.of_int t.busy_ps)

let notify t =
  match t.wakeup with
  | Polling -> ()
  | Interrupts -> Sim.Semaphore.release t.work_signal

let pci_bytes t ~len = if t.full_copy then len + 8 else min len 64 + 8

(* Full longest-prefix match (route-cache miss path): the paper's
   controlled-prefix-expansion lookup at ~236 cycles. *)
(* Full longest-prefix match plus the link-layer rewrite the fast path's
   minimal IP forwarder would have done. *)
let routed_port t frame =
  Chip_ctx.exec t.ctx t.cm.Cost_model.sa_route_lookup_instr;
  Chip_ctx.sram_read t.ctx ~bytes:t.cm.Cost_model.sa_route_lookup_sram_bytes;
  Sim.Stats.Counter.incr t.stats.route_misses;
  match Iproute.Table.lookup t.routes (Packet.Ipv4.get_dst frame) with
  | Some nh ->
      Packet.Ethernet.set_dst frame nh.Iproute.Table.gateway_mac;
      Packet.Ethernet.set_src frame
        (Packet.Ethernet.mac_of_port nh.Iproute.Table.out_port);
      Some nh.Iproute.Table.out_port
  | None -> None

let dequeue_charged t q =
  Chip_ctx.exec t.ctx t.cm.Cost_model.sa_poll_instr;
  Chip_ctx.sram_read t.ctx ~bytes:t.cm.Cost_model.sa_dequeue_sram_bytes;
  (* Under interrupts every dequeued packet carries the interrupt entry and
     exit overhead — the cost that made the paper's interrupt mode
     "significantly slower". *)
  if t.wakeup = Interrupts then
    Chip_ctx.exec t.ctx t.cm.Cost_model.sa_interrupt_cycles;
  Squeue.pop q

(* A packet the slow path consumes without transmitting it gives its
   DRAM buffer back here, so the buffer holds its frame only while the
   packet is in flight, as on the fast path. *)
let drop t desc =
  Sim.Stats.Counter.incr t.stats.dropped;
  Ixp.Buffer_pool.free t.ctx.Chip_ctx.chip.Ixp.Chip.buffers desc.Desc.buf

let finish t desc = if not (t.out_enqueue t.ctx desc) then drop t desc

let process_local t desc =
  match t.read_buffer desc with
  | None ->
      (* The circular allocator lapped this packet while it waited for
         slow-path service (section 3.2.3's documented loss mode). *)
      Sim.Stats.Counter.incr t.stats.stale_bufs
  | Some frame -> (
      let handle_verdict v =
        match (v : Forwarder.verdict) with
        | Forwarder.Drop -> drop t desc
        | Forwarder.Forward p ->
            desc.Desc.out_port <- p;
            Sim.Stats.Counter.incr t.stats.local_done;
            finish t desc
        | Forwarder.Continue | Forwarder.Forward_routed -> begin
            match routed_port t frame with
            | Some p ->
                desc.Desc.out_port <- p;
                Sim.Stats.Counter.incr t.stats.local_done;
                finish t desc
            | None -> drop t desc
          end
        | Forwarder.Divert Desc.Pentium ->
            if not (Squeue.push t.pe_qs.(0) desc) then drop t desc
        | Forwarder.Divert (Desc.Strongarm | Desc.Microengine) ->
            (* Nowhere further to divert locally. *)
            drop t desc
      in
      (* Building and routing an ICMP error costs real StrongARM work.
         The error replaces the packet, which is done with once the
         reply is built. *)
      let send_icmp make =
        match t.icmp_addr with
        | None -> drop t desc
        | Some addr_of -> begin
            Chip_ctx.exec t.ctx 500;
            let reply = make ~router:(addr_of desc.Desc.in_port) frame in
            Ixp.Buffer_pool.free t.ctx.Chip_ctx.chip.Ixp.Chip.buffers
              desc.Desc.buf;
            match routed_port t reply with
            | None -> Sim.Stats.Counter.incr t.stats.dropped
            | Some port -> (
                match
                  Ixp.Buffer_pool.alloc t.ctx.Chip_ctx.chip.Ixp.Chip.buffers
                    reply
                with
                | exception Failure _ ->
                    (* No buffer for the error report; the original is
                       already gone, so just count the drop. *)
                    Sim.Stats.Counter.incr t.stats.dropped
                | buf ->
                    let d =
                      Desc.make ~buf ~len:(Packet.Frame.len reply)
                        ~in_port:desc.Desc.in_port ~out_port:port
                        ~arrival:
                          (Sim.Engine.clock_i
                             t.ctx.Chip_ctx.chip.Ixp.Chip.engine)
                        ()
                    in
                    Sim.Stats.Counter.incr t.stats.icmp_sent;
                    finish t d)
          end
      in
      match t.lookup_fid desc.Desc.fid with
      | Some e ->
          Chip_ctx.exec t.ctx e.Classifier.fwdr.Forwarder.host_cycles;
          handle_verdict
            (e.Classifier.fwdr.Forwarder.action ~state:e.Classifier.state
               frame ~in_port:desc.Desc.in_port)
      | None ->
          (* Exceptional IP slow path: full validation, option handling,
             ICMP generation for TTL expiry and routing failures. *)
          Chip_ctx.exec t.ctx t.cm.Cost_model.sa_poll_instr;
          if not (Packet.Ipv4.valid frame) then drop t desc
          else if Packet.Ipv4.get_ttl frame <= 1 then
            send_icmp Packet.Icmp.time_exceeded
          else begin
            ignore (Packet.Ipv4.decrement_ttl frame);
            match routed_port t frame with
            | Some p ->
                desc.Desc.out_port <- p;
                Sim.Stats.Counter.incr t.stats.local_done;
                finish t desc
            | None -> send_icmp (Packet.Icmp.dest_unreachable ~code:0)
          end)

let bridge_up t desc =
  match t.read_buffer desc with
  | None -> Sim.Stats.Counter.incr t.stats.stale_bufs
  | Some frame ->
      let bytes = pci_bytes t ~len:desc.Desc.len in
      (* Waiting for a free host buffer is backpressure, not work. *)
      Ixp.I2o.acquire_free t.to_pe;
      busy t (fun () ->
          (* Program the DMA; the transfer and full-pointer push ride
             behind concurrently. *)
          Chip_ctx.exec t.ctx
            t.ctx.Chip_ctx.chip.Ixp.Chip.cfg.Ixp.Config.pci_dma_setup_cycles;
          Ixp.I2o.send_acquired t.to_pe ~bytes { desc; frame; bytes });
      Sim.Stats.Counter.incr t.stats.bridged

let spawn t chip =
  let engine = chip.Ixp.Chip.engine in
  Sim.Engine.spawn engine "strongarm" (fun () ->
      let rec loop backoff =
        (match t.faults with
        | Some inj when Fault.Injector.fires inj Sa_crash ->
            (* Crash-and-restart: the CPU goes dark for the reboot time.
               Queues live in SRAM and survive; in-flight state does not
               accumulate because the loop head is a quiescent point. *)
            Sim.Engine.wait_in engine
              (Int64.to_int
                 (Sim.Engine.of_seconds
                    ((Fault.Injector.scenario inj).Fault.Scenario.sa_restart_us
                    *. 1e-6)))
        | _ -> ());
        (* Highest priority: packets coming back down from the Pentium sit
           in a descriptor ring in IXP memory (posted writes by the host);
           draining one is cheap. *)
        match Sim.Mailbox.try_get t.returns with
        | Some desc ->
            busy t (fun () ->
                Chip_ctx.exec t.ctx 20;
                Chip_ctx.scratch_read t.ctx ~bytes:4;
                Sim.Stats.Counter.incr t.stats.returned;
                finish t desc);
            loop 1
        | None -> (
            (* Then Pentium-bound flows, strictly before local work; the
               flow queues themselves are served round-robin so the bridge
               cannot starve a flow before the Pentium's scheduler sees
               it. *)
            let n_pe = Array.length t.pe_qs in
            let rec first_pe k =
              if k >= n_pe then None
              else begin
                let i = (t.pe_rr + k) mod n_pe in
                if Squeue.is_empty t.pe_qs.(i) then first_pe (k + 1)
                else begin
                  t.pe_rr <- (i + 1) mod n_pe;
                  busy t (fun () -> dequeue_charged t t.pe_qs.(i))
                end
              end
            in
            match first_pe 0 with
            | Some desc ->
                bridge_up t desc;
                loop 1
            | None -> (
                match
                  if Squeue.is_empty t.local_q then None
                  else busy t (fun () -> dequeue_charged t t.local_q)
                with
                | Some desc ->
                    busy t (fun () -> process_local t desc);
                    loop 1
                | None -> (
                    match t.wakeup with
                    | Polling ->
                        (* The paper's delay-loop spare-cycle probe. *)
                        Chip_ctx.wait_cycles t.ctx backoff;
                        loop
                          (min (backoff * 2)
                             t.cm.Cost_model.sa_poll_backoff_cycles)
                    | Interrupts ->
                        Sim.Semaphore.acquire t.work_signal;
                        Chip_ctx.exec t.ctx t.cm.Cost_model.sa_interrupt_cycles;
                        loop 1)))
      in
      loop 1)
