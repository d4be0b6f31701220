let base f = Ipv4.payload_offset f

let get_src_port f = Frame.get_u16 f (base f)
let set_src_port f v = Frame.set_u16 f (base f) v
let get_dst_port f = Frame.get_u16 f (base f + 2)
let set_dst_port f v = Frame.set_u16 f (base f + 2) v
let get_seq f = Frame.get_u32 f (base f + 4)
let set_seq f v = Frame.set_u32 f (base f + 4) v
let get_ack f = Frame.get_u32 f (base f + 8)
let set_ack f v = Frame.set_u32 f (base f + 8) v
let get_flags f = Frame.get_u8 f (base f + 13)
let set_flags f v = Frame.set_u8 f (base f + 13) v
let get_cksum f = Frame.get_u16 f (base f + 16)
let set_cksum f v = Frame.set_u16 f (base f + 16) v

let flag_syn = 0x02
let flag_ack = 0x10

let has_flag f flag = get_flags f land flag <> 0

let seg_len f = Ipv4.get_total_len f - Ipv4.header_len f

let full_sum f =
  let off = base f in
  let len = seg_len f in
  let pseudo =
    Checksum.pseudo_header_sum_i ~src:(Ipv4.get_src_i f)
      ~dst:(Ipv4.get_dst_i f)
      ~proto:(Ipv4.get_proto f) ~len
  in
  pseudo + Checksum.sum f.Frame.data ~off ~len

let fill_cksum f =
  set_cksum f 0;
  set_cksum f (Checksum.finish (full_sum f))

let cksum_ok f =
  let s = full_sum f in
  let s = (s land 0xFFFF) + (s lsr 16) in
  let s = (s land 0xFFFF) + (s lsr 16) in
  s = 0xFFFF

let update_cksum_u32 f ~old_v ~new_v =
  let hi v = Int32.to_int (Int32.shift_right_logical v 16) land 0xFFFF in
  let lo v = Int32.to_int v land 0xFFFF in
  let c = get_cksum f in
  let c = Checksum.update16 ~old_cksum:c ~old_word:(hi old_v) ~new_word:(hi new_v) in
  let c = Checksum.update16 ~old_cksum:c ~old_word:(lo old_v) ~new_word:(lo new_v) in
  set_cksum f c
