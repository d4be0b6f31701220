type 'a entry = { time : int64; seq : int; value : 'a }

type 'a t = { mutable arr : 'a entry array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let is_empty h = h.len = 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h entry =
  let cap = Array.length h.arr in
  if h.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let narr = Array.make ncap entry in
    Array.blit h.arr 0 narr 0 h.len;
    h.arr <- narr
  end

let push h ~time ~seq value =
  let e = { time; seq; value } in
  grow h e;
  h.arr.(h.len) <- e;
  h.len <- h.len + 1;
  (* Sift the new entry up to its place. *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h.arr.(i) h.arr.(parent) then begin
        let tmp = h.arr.(i) in
        h.arr.(i) <- h.arr.(parent);
        h.arr.(parent) <- tmp;
        up parent
      end
    end
  in
  up (h.len - 1)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.arr.(0) <- h.arr.(h.len);
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest = ref i in
        if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
        if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
        if !smallest <> i then begin
          let tmp = h.arr.(i) in
          h.arr.(i) <- h.arr.(!smallest);
          h.arr.(!smallest) <- tmp;
          down !smallest
        end
      in
      down 0
    end;
    Some (top.time, top.seq, top.value)
  end

let peek_time h = if h.len = 0 then None else Some h.arr.(0).time

let peek h =
  if h.len = 0 then None else Some (h.arr.(0).time, h.arr.(0).seq)
