(* Parallel arrays rather than an array of records: a burst is refilled
   on every context activation of the batched input loop, and boxing a
   record per MP would allocate on the per-MP hot path the batching
   exists to shorten.  The meta word encoding is Mac_port's ring
   encoding, copied verbatim by [fill_from_port]. *)
type t = {
  meta : int array; (* (index lsl 2) lor tag code *)
  frames : Packet.Frame.t array;
  mutable len : int;
  dummy : Packet.Frame.t; (* fills vacated slots so no frame is pinned *)
}

let code_of_tag = function
  | Packet.Mp.Only -> 0
  | Packet.Mp.First -> 1
  | Packet.Mp.Intermediate -> 2
  | Packet.Mp.Last -> 3

let create ~capacity =
  if capacity <= 0 then invalid_arg "Batch.create: capacity";
  let dummy = Packet.Frame.of_bytes Bytes.empty in
  {
    meta = Array.make capacity 0;
    frames = Array.make capacity dummy;
    len = 0;
    dummy;
  }

let clear t =
  for i = 0 to t.len - 1 do
    t.frames.(i) <- t.dummy
  done;
  t.len <- 0

let push t ~tag ~index frame =
  if t.len >= Array.length t.meta then invalid_arg "Batch.push: full";
  t.meta.(t.len) <- (index lsl 2) lor code_of_tag tag;
  t.frames.(t.len) <- frame;
  t.len <- t.len + 1

let frame t i = t.frames.(i)
let tag t i = Ixp.Mac_port.tag_of_meta t.meta.(i)

let is_head t i =
  let c = t.meta.(i) land 3 in
  c = 0 || c = 1

let fill_from_port t port ~max =
  clear t;
  let cap = Array.length t.meta in
  let n =
    Ixp.Mac_port.take_burst port ~meta:t.meta ~frames:t.frames
      ~max:(if max < cap then max else cap)
  in
  t.len <- n;
  n
