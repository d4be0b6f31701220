type mac = int

let header_len = 14

let mac_of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
      List.fold_left
        (fun acc x -> (acc lsl 8) lor int_of_string ("0x" ^ x))
        0 [ a; b; c; d; e; f ]
  | _ -> invalid_arg "Ethernet.mac_of_string"

let pp_mac ppf m =
  Format.fprintf ppf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((m lsr 40) land 0xFF) ((m lsr 32) land 0xFF) ((m lsr 24) land 0xFF)
    ((m lsr 16) land 0xFF) ((m lsr 8) land 0xFF) (m land 0xFF)

(* Locally administered (bit 1 of first octet set), stable per port. *)
let mac_of_port i = 0x020000000000 lor (0xC0DE00 lsl 8) lor (i land 0xFF)

let get_mac f off = (Frame.get_u16 f off lsl 32) lor Frame.get_u32_i f (off + 2)

let set_mac f off m =
  Frame.set_u16 f off ((m lsr 32) land 0xFFFF);
  Frame.set_u32_i f (off + 2) (m land 0xFFFFFFFF)

let get_dst f = get_mac f 0
let set_dst f m = set_mac f 0 m
let set_src f m = set_mac f 6 m

let get_ethertype f = Frame.get_u16 f 12
let set_ethertype f v = Frame.set_u16 f 12 v

let ethertype_ipv4 = 0x0800
