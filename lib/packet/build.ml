let min_frame = 64
let max_frame = 1518

(* Hoisted: [mac_of_string] parses per call (string splits, list
   folds), and [base_frame_i] runs once per generated frame. *)
let builder_src_mac = Ethernet.mac_of_string "02:00:00:00:00:01"
let port0_mac = Ethernet.mac_of_port 0

(* Addresses flow through here as native ints ([0 .. 2^32-1]): the
   int32 entry points convert at the boundary (free — [Int32.to_int]
   unboxes), so per-frame generators never box an address. *)
let base_frame_i ?pool ~frame_len ~src ~dst ~ttl ~tos ~proto ~l4_len () =
  (* Headroom for encapsulation (e.g. an MPLS label push at an ingress
     LER) — the real DRAM buffer is 2 KB regardless of frame size.  A
     pool mints frames at its own (fixed) capacity, so size it with the
     headroom included. *)
  let f =
    match pool with
    | Some p -> Frame_pool.take p ~len:frame_len
    | None -> Frame.alloc ~headroom:16 frame_len
  in
  Ethernet.set_dst f port0_mac;
  Ethernet.set_src f builder_src_mac;
  Ethernet.set_ethertype f Ethernet.ethertype_ipv4;
  Frame.set_u8 f Ipv4.offset 0x45;
  Ipv4.set_tos f tos;
  Ipv4.set_total_len f (Ipv4.min_header_len + l4_len);
  Ipv4.set_ttl f ttl;
  Ipv4.set_proto f proto;
  Ipv4.set_src_i f src;
  Ipv4.set_dst_i f dst;
  f

let addr_i v = Int32.to_int v land 0xFFFFFFFF

let l4_capacity ~frame_len = frame_len - Ipv4.offset - Ipv4.min_header_len

let udp_gen pool ~frame_len ~src ~dst ~src_port ~dst_port ~ttl ~tos ~payload
    =
  let l4_len = min (8 + String.length payload) (l4_capacity ~frame_len) in
  let f =
    base_frame_i ?pool ~frame_len ~src ~dst ~ttl ~tos ~proto:Ipv4.proto_udp
      ~l4_len ()
  in
  Udp.set_src_port f src_port;
  Udp.set_dst_port f dst_port;
  Udp.set_len f l4_len;
  let pay_room = l4_len - 8 in
  if pay_room > 0 && payload <> "" then
    Bytes.blit_string payload 0 f.Frame.data (Udp.payload_offset f)
      (min pay_room (String.length payload));
  Ipv4.fill_cksum f;
  Udp.fill_cksum f;
  f

let udp_i ?pool ?(frame_len = min_frame) ~src ~dst ~src_port ~dst_port () =
  udp_gen pool ~frame_len ~src ~dst ~src_port ~dst_port ~ttl:64 ~tos:0
    ~payload:""

let udp ?pool ?(frame_len = min_frame) ~src ~dst ~src_port ~dst_port
    ?(ttl = 64) ?(tos = 0) ?(payload = "") () =
  udp_gen pool ~frame_len ~src:(addr_i src) ~dst:(addr_i dst) ~src_port
    ~dst_port ~ttl ~tos ~payload

let tcp ?pool ?(frame_len = min_frame) ~src ~dst ~src_port ~dst_port
    ?(ttl = 64) ?(tos = 0) ?(seq = 0l) ?(ack = 0l) ?(flags = Tcp.flag_ack)
    ?(payload = "") () =
  let l4_len = min (20 + String.length payload) (l4_capacity ~frame_len) in
  let f =
    base_frame_i ?pool ~frame_len ~src:(addr_i src) ~dst:(addr_i dst) ~ttl
      ~tos ~proto:Ipv4.proto_tcp ~l4_len ()
  in
  Tcp.set_src_port f src_port;
  Tcp.set_dst_port f dst_port;
  Tcp.set_seq f seq;
  Tcp.set_ack f ack;
  (* Data offset 5 words, then flags. *)
  Frame.set_u8 f (Ipv4.payload_offset f + 12) 0x50;
  Tcp.set_flags f flags;
  Frame.set_u16 f (Ipv4.payload_offset f + 14) 0xFFFF (* window *);
  let pay_room = l4_len - 20 in
  if pay_room > 0 && payload <> "" then
    Bytes.blit_string payload 0 f.Frame.data
      (Ipv4.payload_offset f + 20)
      (min pay_room (String.length payload));
  Ipv4.fill_cksum f;
  Tcp.fill_cksum f;
  f

let with_ip_options f =
  let old_hlen = Ipv4.header_len f in
  let extra = 4 in
  let g = Frame.alloc (Frame.len f + extra) in
  let ip_end = Ipv4.offset + old_hlen in
  Bytes.blit f.Frame.data 0 g.Frame.data 0 ip_end;
  (* NOP, NOP, NOP, EOL option block. *)
  Bytes.set g.Frame.data ip_end '\001';
  Bytes.set g.Frame.data (ip_end + 1) '\001';
  Bytes.set g.Frame.data (ip_end + 2) '\001';
  Bytes.set g.Frame.data (ip_end + 3) '\000';
  Bytes.blit f.Frame.data ip_end g.Frame.data (ip_end + extra)
    (Frame.len f - ip_end);
  Frame.set_u8 g Ipv4.offset (0x40 lor (old_hlen / 4 + 1));
  Ipv4.set_total_len g (Ipv4.get_total_len f + extra);
  Ipv4.fill_cksum g;
  g
