let action ~state frame ~in_port:_ =
  (if
     Packet.Ipv4.get_proto frame = Packet.Ipv4.proto_tcp
     && Packet.Tcp.has_flag frame Packet.Tcp.flag_syn
   then Fstate.add_u32 state 0 1);
  Router.Forwarder.Continue

let forwarder =
  Router.Forwarder.make ~name:"syn-monitor"
    ~code:[ Router.Vrp.Instr 5; Router.Vrp.Sram_write 4 ]
    ~state_bytes:4 action

let syn_count state = Fstate.get_u32 state 0
