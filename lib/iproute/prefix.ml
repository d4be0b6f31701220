(* An immediate native int: the 32 address bits above a 6-bit length.
   Canonical (host bits zero), so structural equality is prefix
   equality and no prefix ever boxes an [int32]. *)
type t = int

let bits p = p lsr 6
let length p = p land 63

let of_bits u len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length";
  let host = 32 - len in
  ((((u land 0xFFFFFFFF) lsr host) lsl host) lsl 6) lor len

let make addr len = of_bits (Int32.to_int addr) len

let of_string s =
  match String.split_on_char '/' s with
  | [ a; l ] -> make (Packet.Ipv4.addr_of_string a) (int_of_string l)
  | [ a ] -> make (Packet.Ipv4.addr_of_string a) 32
  | _ -> invalid_arg "Prefix.of_string"

let addr p = Int32.of_int (bits p)

(* A shift by 32 clears every bit of a 32-bit value, so /0 matches all. *)
let matches p a =
  let host = 32 - length p in
  (Int32.to_int a land 0xFFFFFFFF) lsr host = bits p lsr host

let default = 0

let equal = Int.equal

(* Length first, then address; the address bits are non-negative, so
   comparing the packed ints orders equal lengths by unsigned address. *)
let compare a b =
  let c = Int.compare (length a) (length b) in
  if c <> 0 then c else Int.compare a b

let pp ppf p = Format.fprintf ppf "%a/%d" Packet.Ipv4.pp_addr (addr p) (length p)

let expand p len =
  if len < length p then invalid_arg "Prefix.expand: shrinking";
  if len > 32 then invalid_arg "Prefix.expand: length";
  let extra = len - length p in
  if extra > 20 then invalid_arg "Prefix.expand: too wide";
  List.init (1 lsl extra) (fun i -> of_bits (bits p lor (i lsl (32 - len))) len)
