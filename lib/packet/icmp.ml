let proto = 1

let type_echo_reply = 0
let type_dest_unreachable = 3
let type_echo_request = 8
let type_time_exceeded = 11

let base f = Ipv4.payload_offset f

let get_type f = Frame.get_u8 f (base f)

let icmp_len f = Ipv4.get_total_len f - Ipv4.header_len f

let fill_cksum f =
  Frame.set_u16 f (base f + 2) 0;
  Frame.set_u16 f (base f + 2)
    (Checksum.compute f.Frame.data ~off:(base f) ~len:(icmp_len f))

let checksum_ok f =
  Checksum.verify f.Frame.data ~off:(base f) ~len:(icmp_len f)

let bare ~src ~dst ~icmp_bytes =
  let l3_len = Ipv4.min_header_len + icmp_bytes in
  let frame_len = max 64 (Ethernet.header_len + l3_len) in
  let f = Frame.alloc ~headroom:16 frame_len in
  Ethernet.set_dst f (Ethernet.mac_of_port 0);
  Ethernet.set_src f (Ethernet.mac_of_port 0);
  Ethernet.set_ethertype f Ethernet.ethertype_ipv4;
  Frame.set_u8 f Ipv4.offset 0x45;
  Ipv4.set_total_len f l3_len;
  Ipv4.set_ttl f 64;
  Ipv4.set_proto f proto;
  Ipv4.set_src f src;
  Ipv4.set_dst f dst;
  f

let echo_request ~src ~dst ~id ~seq () =
  let f = bare ~src ~dst ~icmp_bytes:8 in
  Frame.set_u8 f (base f) type_echo_request;
  Frame.set_u16 f (base f + 4) id;
  Frame.set_u16 f (base f + 6) seq;
  Ipv4.fill_cksum f;
  fill_cksum f;
  f

let echo_reply_of req =
  let f = Frame.copy req in
  let src = Ipv4.get_src f and dst = Ipv4.get_dst f in
  Ipv4.set_src f dst;
  Ipv4.set_dst f src;
  Frame.set_u8 f (base f) type_echo_reply;
  Ipv4.fill_cksum f;
  fill_cksum f;
  f

(* RFC 792 error format: type, code, checksum, 4 unused bytes, then the
   original IP header plus its first 8 payload bytes. *)
let error ~router ~ty ~code original =
  let quoted =
    min
      (Ipv4.header_len original + 8)
      (Frame.len original - Ipv4.offset)
  in
  let f =
    bare ~src:router ~dst:(Ipv4.get_src original) ~icmp_bytes:(8 + quoted)
  in
  Frame.set_u8 f (base f) ty;
  Frame.set_u8 f (base f + 1) code;
  Bytes.blit original.Frame.data Ipv4.offset f.Frame.data (base f + 8) quoted;
  Ipv4.fill_cksum f;
  fill_cksum f;
  f

let time_exceeded ~router original =
  error ~router ~ty:type_time_exceeded ~code:0 original

let dest_unreachable ~router ~code original =
  error ~router ~ty:type_dest_unreachable ~code original

let quoted_src f =
  let ty = get_type f in
  if ty <> type_time_exceeded && ty <> type_dest_unreachable then None
  else begin
    let quoted_ip = base f + 8 in
    if quoted_ip + Ipv4.min_header_len > Frame.len f then None
    else Some (Frame.get_u32 f (quoted_ip + 12))
  end
