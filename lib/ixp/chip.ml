type t = {
  cfg : Config.t;
  engine : Sim.Engine.t;
  me_clock : Sim.Engine.Clock.clock;
  pentium_clock : Sim.Engine.Clock.clock;
  dram : Mem.t;
  sram : Mem.t;
  scratch : Mem.t;
  mes : Microengine.t array;
  istores : Istore.t array;
  hash : Hash_unit.t;
  ports : Mac_port.t array;
  pci : Pci.t;
  buffers : Buffer_pool.t;
}

type port_spec = { mbps : float; sink : (Packet.Frame.t -> unit) option }

let eval_board_ports =
  List.init 10 (fun i ->
      { mbps = (if i < 8 then 100. else 1000.); sink = None })

let create ?(cfg = Config.default) ?(ports = eval_board_ports)
    ?(circular_buffers = true) engine =
  let me_clock = Config.me_clock cfg in
  {
    cfg;
    engine;
    me_clock;
    pentium_clock = Config.pentium_clock cfg;
    dram = Mem.create engine me_clock cfg.dram;
    sram = Mem.create engine me_clock cfg.sram;
    scratch = Mem.create engine me_clock cfg.scratch;
    mes =
      Array.init cfg.n_microengines (fun _ ->
          Microengine.create engine me_clock);
    istores = Array.init cfg.n_microengines (fun _ -> Istore.create cfg);
    hash = Hash_unit.create engine me_clock ~cycles:cfg.hash_cycles;
    ports =
      Array.of_list
        (List.mapi
           (fun id (spec : port_spec) ->
             Mac_port.create engine ~id ~mbps:spec.mbps
               ~rx_slots:cfg.port_rx_slots ?sink:spec.sink ())
           ports);
    pci = Pci.create engine cfg;
    buffers =
      (if circular_buffers then Buffer_pool.create_circular
       else Buffer_pool.create_stack)
        ~count:cfg.buffer_count ();
  }

let set_faults t inj =
  Mem.set_faults t.dram inj;
  Mem.set_faults t.sram inj;
  Mem.set_faults t.scratch inj;
  Array.iter (fun p -> Mac_port.set_faults p inj) t.ports;
  Buffer_pool.set_faults t.buffers inj

let context_me t ctx = t.mes.(ctx / t.cfg.contexts_per_me)
