let dst_port frame =
  let proto = Packet.Ipv4.get_proto frame in
  if proto = Packet.Ipv4.proto_tcp then Some (Packet.Tcp.get_dst_port frame)
  else if proto = Packet.Ipv4.proto_udp then
    Some (Packet.Udp.get_dst_port frame)
  else None

let action ~state frame ~in_port:_ =
  match dst_port frame with
  | None -> Router.Forwarder.Continue
  | Some port ->
      let rec blocked slot =
        if slot >= 5 then false
        else begin
          let lo = Fstate.get_u16 state (4 * slot) in
          let hi = Fstate.get_u16 state ((4 * slot) + 2) in
          ((lo lor hi) <> 0 && port >= lo && port <= hi) || blocked (slot + 1)
        end
      in
      if blocked 0 then Router.Forwarder.Drop else Router.Forwarder.Continue

let forwarder =
  Router.Forwarder.make ~name:"port-filter"
    ~code:[ Router.Vrp.Instr 26; Router.Vrp.Sram_read 20 ]
    ~state_bytes:20 action

let set_range state ~slot ~lo ~hi =
  if slot < 0 || slot > 4 then invalid_arg "Port_filter.set_range: slot";
  if lo < 0 || hi > 0xFFFF || lo > hi then
    invalid_arg "Port_filter.set_range: range";
  Fstate.set_u16 state (4 * slot) lo;
  Fstate.set_u16 state ((4 * slot) + 2) hi
