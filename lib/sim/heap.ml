(* Binary min-heap over parallel arrays: keys interleaved ([time] at
   [2i], [seq] at [2i+1]) in one int array, values in their own, so a
   push allocates nothing once the arrays have grown.

   A slot past [len] holds [vacant], never a value the heap has handed
   out or moved away from: pop writes it into the slot it vacates, and
   growth fills the spare slots with it.  A popped value is therefore
   unreachable from the heap, whatever it captured. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable len : int;
  vacant : 'a;
}

let create ~vacant = { keys = [||]; vals = [||]; len = 0; vacant }
let is_empty h = h.len = 0

(* Key of slot [i] strictly below the key [(time, seq)]. *)
let below keys i time seq =
  let ti = Array.unsafe_get keys (2 * i) in
  ti < time || (ti = time && Array.unsafe_get keys ((2 * i) + 1) < seq)

let set h i time seq v =
  Array.unsafe_set h.keys (2 * i) time;
  Array.unsafe_set h.keys ((2 * i) + 1) seq;
  Array.unsafe_set h.vals i v

let move h ~src ~dst =
  set h dst
    (Array.unsafe_get h.keys (2 * src))
    (Array.unsafe_get h.keys ((2 * src) + 1))
    (Array.unsafe_get h.vals src)

let grow h =
  let cap = Array.length h.vals in
  if h.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nk = Array.make (2 * ncap) 0 and nv = Array.make ncap h.vacant in
    Array.blit h.keys 0 nk 0 (2 * h.len);
    Array.blit h.vals 0 nv 0 h.len;
    h.keys <- nk;
    h.vals <- nv
  end

(* Sift a hole at [i] up past every parent above [(time, seq)], then
   fill it. *)
let push h ~time ~seq v =
  grow h;
  let rec up i =
    if i = 0 then 0
    else
      let parent = (i - 1) / 2 in
      if below h.keys parent time seq then i
      else begin
        move h ~src:parent ~dst:i;
        up parent
      end
  in
  set h (up h.len) time seq v;
  h.len <- h.len + 1

let pop h =
  if h.len = 0 then None
  else begin
    let keys = h.keys in
    let top = (keys.(0), keys.(1), h.vals.(0)) in
    let last = h.len - 1 in
    h.len <- last;
    let time = keys.(2 * last) and seq = keys.((2 * last) + 1) in
    let v = h.vals.(last) in
    h.vals.(last) <- h.vacant;
    if last > 0 then begin
      (* Sift a hole from the root down, then drop the old last entry
         into it. *)
      let rec down i =
        let l = (2 * i) + 1 in
        if l >= last then i
        else begin
          let r = l + 1 in
          let c =
            if r < last && below keys r keys.(2 * l) keys.((2 * l) + 1) then r
            else l
          in
          if below keys c time seq then begin
            move h ~src:c ~dst:i;
            down c
          end
          else i
        end
      in
      set h (down 0) time seq v
    end;
    Some top
  end

let min_time h = if h.len = 0 then max_int else Array.unsafe_get h.keys 0

let peek h = if h.len = 0 then None else Some (h.keys.(0), h.keys.(1))
