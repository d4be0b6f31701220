(* Handles are packed native ints — generation in the high bits, slot
   index in the low [idx_bits] — because the record form of the first
   version cost 3 words per allocation on a path that runs per packet
   (plus 2 more for the [Some] wrapping in [alloc_opt]'s callers).  24
   index bits cover 16M buffers, far beyond the paper's 8192; the ~38
   remaining generation bits lap a slot for longer than any run. *)

type handle = int

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let handle_of ~index ~generation = (generation lsl idx_bits) lor index
let handle_index h = h land idx_mask
let handle_generation h = h asr idx_bits

exception Stale

(* Slots are parallel flat arrays, not a record per slot: 8192 records
   cost ~41k words at every router's construction, the arrays ~16k.
   Slots hold frames directly, with a shared zero-length sentinel for
   "empty" — an option field would cost a fresh [Some] per store.  A
   slot holds its frame exactly while the packet is in flight: from
   {!alloc} until {!free} (or, for a packet never freed, until the
   circular cursor laps it).  So "holds a frame" is the liveness
   bit in both modes, and generation 0 means "never written". *)
let no_frame = Packet.Frame.alloc 0

type t = {
  frames : Packet.Frame.t array;
  gens : int array;
  circular : bool;
  mutable next : int; (* circular mode: the slot the next alloc takes *)
  (* Stack mode: free slots as an int-array stack, top at
     [free_len - 1]; a [Stack.t] allocates a cons per push.  Empty in
     circular mode. *)
  free : int array;
  mutable free_len : int;
  mutable overwrites : int;
  mutable stale_reads : int;
  mutable in_use : int;
  mutable faults : Fault.Injector.t option;
  (* Called with a frame the pool no longer references: a {!free}, or a
     circular-mode eviction of a packet never freed.  Lets an upstream
     frame pool recycle the storage; gated on [Some] so the default
     path and its counters ([overwrites] included) are untouched. *)
  mutable on_release : (Packet.Frame.t -> unit) option;
}

let set_faults t inj = t.faults <- Some inj
let set_release t f = t.on_release <- Some f

let make ~circular ~count =
  if count <= 0 then invalid_arg "Buffer_pool: count";
  if count > idx_mask + 1 then invalid_arg "Buffer_pool: count too large";
  {
    frames = Array.make count no_frame;
    gens = Array.make count 0;
    circular;
    next = 0;
    (* Slot 0 on top, so a fresh stack pool hands out 0, 1, 2, ... *)
    free =
      (if circular then [||] else Array.init count (fun i -> count - 1 - i));
    free_len = (if circular then 0 else count);
    overwrites = 0;
    stale_reads = 0;
    in_use = 0;
    faults = None;
    on_release = None;
  }

let create_circular ~count () = make ~circular:true ~count
let create_stack ~count () = make ~circular:false ~count

let alloc t frame =
  (match t.faults with
  | Some inj when Fault.Injector.fires inj Pool_fail ->
      failwith "Buffer_pool: injected allocation failure"
  | _ -> ());
  if t.circular then begin
    let index = t.next in
    let next = index + 1 in
    t.next <- (if next = Array.length t.frames then 0 else next);
    let generation = t.gens.(index) + 1 in
    (* Every reuse of a written slot counts, whether or not its packet
       was freed first: [overwrites] measures laps, not losses. *)
    if generation > 1 then t.overwrites <- t.overwrites + 1;
    let old = Array.unsafe_get t.frames index in
    if old != no_frame then begin
      match t.on_release with Some r -> r old | None -> ()
    end;
    t.gens.(index) <- generation;
    t.frames.(index) <- frame;
    handle_of ~index ~generation
  end
  else begin
    if t.free_len = 0 then failwith "Buffer_pool: out of buffers";
    t.free_len <- t.free_len - 1;
    let index = t.free.(t.free_len) in
    let generation = t.gens.(index) + 1 in
    t.gens.(index) <- generation;
    t.frames.(index) <- frame;
    t.in_use <- t.in_use + 1;
    handle_of ~index ~generation
  end

(* Non-raising form for the batched hot loop: allocation failure (an
   injected Pool_fail or a dry stack) is an expected per-frame outcome
   there, and raising would tear the whole batch down through the
   exception handler instead of dropping one frame.  Failure is encoded
   as a negative handle rather than an option — generations are
   positive, so no valid handle is negative — keeping the per-packet
   success path free of a [Some] box. *)
let alloc_try t frame =
  match alloc t frame with h -> h | exception Failure _ -> -1

(* A freed slot keeps its generation, so the empty sentinel is what
   marks its handle stale: a read never returns the sentinel, nor the
   frame of a packet allocated since. *)
let get t h =
  let index = h land idx_mask in
  let frame = t.frames.(index) in
  if t.gens.(index) <> h asr idx_bits || frame == no_frame then begin
    t.stale_reads <- t.stale_reads + 1;
    raise Stale
  end
  else frame

let read t h = match get t h with f -> Some f | exception Stale -> None

let free t h =
  let index = handle_index h in
  let frame = t.frames.(index) in
  if frame != no_frame && t.gens.(index) = handle_generation h then begin
    (match t.on_release with Some r -> r frame | None -> ());
    t.frames.(index) <- no_frame;
    if not t.circular then begin
      t.in_use <- t.in_use - 1;
      t.free.(t.free_len) <- index;
      t.free_len <- t.free_len + 1
    end
  end

let overwrites t = t.overwrites
let stale_reads t = t.stale_reads
let in_use t = t.in_use
let count t = Array.length t.frames

let check t =
  let n = Array.length t.frames in
  if t.circular then
    if t.next < 0 || t.next >= n then
      Some (Printf.sprintf "circular cursor %d outside pool of %d" t.next n)
    else None
  else begin
    let live = ref 0 in
    Array.iter (fun f -> if f != no_frame then incr live) t.frames;
    if !live <> t.in_use then
      Some (Printf.sprintf "live slots %d <> in_use %d" !live t.in_use)
    else if t.free_len + t.in_use <> n then
      Some
        (Printf.sprintf "free %d + in_use %d <> count %d" t.free_len t.in_use n)
    else None
  end
