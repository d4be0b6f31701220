type t = {
  data : Bytes.t;
  mutable len : int;
  (* {!Frame_pool} bookkeeping: the owning pool slot (-1 while unpooled)
     and the recycle generation stamped at checkout.  Copies never
     inherit pool identity — only the original checkout may be given
     back. *)
  mutable pool_slot : int;
  mutable pool_gen : int;
}

let alloc ?(headroom = 0) n =
  { data = Bytes.make (n + headroom) '\000'; len = n; pool_slot = -1; pool_gen = 0 }

let of_bytes b = { data = b; len = Bytes.length b; pool_slot = -1; pool_gen = 0 }
let copy f = { data = Bytes.copy f.data; len = f.len; pool_slot = -1; pool_gen = 0 }
let len f = f.len

let get_u8 f off = Char.code (Bytes.get f.data off)
let set_u8 f off v = Bytes.set f.data off (Char.chr (v land 0xFF))

let get_u16 f off = (get_u8 f off lsl 8) lor get_u8 f (off + 1)

let set_u16 f off v =
  set_u8 f off (v lsr 8);
  set_u8 f (off + 1) v

let get_u32 f off =
  let hi = get_u16 f off and lo = get_u16 f (off + 2) in
  Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo)

let set_u32 f off v =
  set_u16 f off (Int32.to_int (Int32.shift_right_logical v 16) land 0xFFFF);
  set_u16 f (off + 2) (Int32.to_int v land 0xFFFF)

(* Native-int 32-bit accessors: an [int32] result is a fresh box per
   read, and header reads run several times per packet. *)
let get_u32_i f off = (get_u16 f off lsl 16) lor get_u16 f (off + 2)

let set_u32_i f off v =
  set_u16 f off ((v lsr 16) land 0xFFFF);
  set_u16 f (off + 2) (v land 0xFFFF)

let prefix_copy f ~len =
  { data = Bytes.sub f.data 0 len; len; pool_slot = -1; pool_gen = 0 }

let equal a b =
  a.len = b.len
  &&
  (* Compare in place: slicing both buffers just to compare them would
     allocate two copies of every frame on a path that runs per packet. *)
  let n = a.len in
  let rec eq i =
    i >= n
    || Bytes.unsafe_get a.data i = Bytes.unsafe_get b.data i && eq (i + 1)
  in
  a.data == b.data || eq 0
