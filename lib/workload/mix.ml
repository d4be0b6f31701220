let subnet_addr_i ~subnet ~host =
  (10 lsl 24) lor ((subnet land 0xFF) lsl 16) lor (host land 0xFFFF)

let subnet_addr ~subnet ~host = Int32.of_int (subnet_addr_i ~subnet ~host)

let udp_uniform ?pool ~rng ~n_subnets ?(frame_len = Packet.Build.min_frame)
    () i =
  let subnet = Sim.Rng.int rng n_subnets in
  let host = 1 + Sim.Rng.int rng 100 in
  Packet.Build.udp_i ?pool ~frame_len
    ~src:(subnet_addr_i ~subnet:(200 + (i mod 8)) ~host:(i land 0xFFFF))
    ~dst:(subnet_addr_i ~subnet ~host)
    ~src_port:(1024 + (i mod 60000))
    ~dst_port:(Sim.Rng.int rng 10000)
    ()

let udp_fixed ~dst () i =
  Packet.Build.udp
    ~src:(subnet_addr ~subnet:250 ~host:i)
    ~dst ~src_port:4000 ~dst_port:5000 ()

let syn_flood ~rng ~dst ~dst_port i =
  Packet.Build.tcp
    ~src:(Sim.Rng.int32 rng)
    ~dst
    ~src_port:(1024 + Sim.Rng.int rng 60000)
    ~dst_port
    ~seq:(Int32.of_int i)
    ~flags:Packet.Tcp.flag_syn ()

let layered_video ~flow ~layers () i =
  let layer = i mod layers in
  Packet.Build.udp ~src:flow.Packet.Flow.src_addr
    ~dst:flow.Packet.Flow.dst_addr ~src_port:flow.Packet.Flow.src_port
    ~dst_port:flow.Packet.Flow.dst_port
    ~payload:(String.make 1 (Char.chr layer))
    ()

let with_options_share ~rng ~share base i =
  let f = base i in
  if Sim.Rng.float rng 1.0 < share then Packet.Build.with_ip_options f else f
