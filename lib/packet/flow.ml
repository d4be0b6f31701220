type tuple = {
  src_addr : Ipv4.addr;
  src_port : int;
  dst_addr : Ipv4.addr;
  dst_port : int;
}

type t = All | Tuple of tuple

(* The offset of the TCP/UDP ports, or -1 when [f] carries neither or
   is too short to hold them. *)
let ports_offset f =
  if Frame.len f < Ipv4.offset + Ipv4.min_header_len then -1
  else begin
    let proto = Ipv4.get_proto f in
    if proto <> Ipv4.proto_tcp && proto <> Ipv4.proto_udp then -1
    else begin
      let base = Ipv4.payload_offset f in
      if Frame.len f < base + 4 then -1 else base
    end
  end

let of_frame f =
  let base = ports_offset f in
  if base < 0 then None
  else
    Some
      {
        src_addr = Ipv4.get_src f;
        src_port = Frame.get_u16 f base;
        dst_addr = Ipv4.get_dst f;
        dst_port = Frame.get_u16 f (base + 2);
      }

type five = {
  f_src : Ipv4.addr;
  f_src_port : int;
  f_dst : Ipv4.addr;
  f_dst_port : int;
  f_proto : int;
  f_dscp : int;
}

let five_of_frame f =
  let base = ports_offset f in
  if base < 0 then None
  else
    Some
      {
        f_src = Ipv4.get_src f;
        f_src_port = Frame.get_u16 f base;
        f_dst = Ipv4.get_dst f;
        f_dst_port = Frame.get_u16 f (base + 2);
        f_proto = Ipv4.get_proto f;
        f_dscp = Ipv4.dscp f;
      }

let reverse t =
  {
    src_addr = t.dst_addr;
    src_port = t.dst_port;
    dst_addr = t.src_addr;
    dst_port = t.src_port;
  }

let equal_tuple a b =
  a.src_addr = b.src_addr && a.src_port = b.src_port && a.dst_addr = b.dst_addr
  && a.dst_port = b.dst_port

let equal a b =
  match (a, b) with
  | All, All -> true
  | Tuple x, Tuple y -> equal_tuple x y
  | All, Tuple _ | Tuple _, All -> false

let compare a b =
  match (a, b) with
  | All, All -> 0
  | All, Tuple _ -> -1
  | Tuple _, All -> 1
  | Tuple x, Tuple y -> Stdlib.compare x y

let pp ppf = function
  | All -> Format.pp_print_string ppf "ALL"
  | Tuple t ->
      Format.fprintf ppf "%a:%d -> %a:%d" Ipv4.pp_addr t.src_addr t.src_port
        Ipv4.pp_addr t.dst_addr t.dst_port

let matches k f =
  match k with
  | All -> true
  | Tuple t -> (
      match of_frame f with None -> false | Some u -> equal_tuple t u)
