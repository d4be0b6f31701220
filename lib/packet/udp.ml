let base f = Ipv4.payload_offset f

let get_src_port f = Frame.get_u16 f (base f)
let set_src_port f v = Frame.set_u16 f (base f) v
let get_dst_port f = Frame.get_u16 f (base f + 2)
let set_dst_port f v = Frame.set_u16 f (base f + 2) v
let get_len f = Frame.get_u16 f (base f + 4)
let set_len f v = Frame.set_u16 f (base f + 4) v
let set_cksum f v = Frame.set_u16 f (base f + 6) v

let fill_cksum f =
  set_cksum f 0;
  let off = base f in
  let len = get_len f in
  let pseudo =
    Checksum.pseudo_header_sum_i ~src:(Ipv4.get_src_i f)
      ~dst:(Ipv4.get_dst_i f)
      ~proto:(Ipv4.get_proto f) ~len
  in
  let c = Checksum.finish (pseudo + Checksum.sum f.Frame.data ~off ~len) in
  (* An all-zero UDP checksum means "none"; transmit 0xFFFF instead. *)
  set_cksum f (if c = 0 then 0xFFFF else c)

let payload_offset f = base f + 8
