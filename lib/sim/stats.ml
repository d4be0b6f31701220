module Counter = struct
  type t = { mutable n : int }

  let create () = { n = 0 }
  let incr c = c.n <- c.n + 1
  let value c = c.n

  let rate c ~over =
    if over <= 0L then 0. else float_of_int c.n /. Engine.seconds over
end

module Histogram = struct
  (* Bucket i holds samples whose bit length is i, i.e. in
     [2^(i-1), 2^i).  64 buckets + one for zero.

     Internals are native ints: the int64 [observe] of the first version
     boxed its argument and the float [sum] field allocated on every
     update (a mutable float in a mixed record is boxed), so the per-
     packet latency observation cost ~8 words.  Sample values on the hot
     path are picosecond durations, which fit a native int by the same
     argument as the engine clock. *)
  type t = {
    name : string;
    buckets : int array;
    mutable count : int;
    mutable sum_i : int;
    mutable max_i : int;
  }

  let create name =
    { name; buckets = Array.make 65 0; count = 0; sum_i = 0; max_i = 0 }

  let bucket_of_i v =
    if v <= 0 then 0
    else begin
      let rec bits i v = if v = 0 then i else bits (i + 1) (v lsr 1) in
      bits 0 v
    end

  let observe_i h v =
    let b = bucket_of_i v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.count <- h.count + 1;
    h.sum_i <- h.sum_i + v;
    if v > h.max_i then h.max_i <- v

  let count h = h.count

  let mean h =
    if h.count = 0 then 0. else float_of_int h.sum_i /. float_of_int h.count

  let max_value h = Int64.of_int h.max_i

  let percentile h p =
    if h.count = 0 then 0L
    else begin
      let target = int_of_float (Float.round (p *. float_of_int h.count)) in
      let target = if target < 1 then 1 else target in
      let rec scan i acc =
        if i > 64 then Int64.of_int h.max_i
        else begin
          let acc = acc + h.buckets.(i) in
          if acc >= target then
            if i = 0 then 0L else Int64.shift_left 1L i
          else scan (i + 1) acc
        end
      in
      scan 0 0
    end

  let pp ppf h =
    Format.fprintf ppf "%s: n=%d mean=%.1f p50<=%Ld p99<=%Ld max=%d" h.name
      h.count (mean h) (percentile h 0.5) (percentile h 0.99) h.max_i
end

module Series = struct
  type t = {
    name : string;
    x_label : string;
    y_label : string;
    mutable pts : (float * float) list; (* reversed *)
  }

  let create ~name ~x_label ~y_label = { name; x_label; y_label; pts = [] }
  let add s ~x ~y = s.pts <- (x, y) :: s.pts
  let points s = List.rev s.pts
  let name s = s.name
  let x_label s = s.x_label
  let y_label s = s.y_label

  let pp ppf s =
    let pts = points s in
    let ymax = List.fold_left (fun acc (_, y) -> Float.max acc y) 0. pts in
    Format.fprintf ppf "@[<v>%s@,%14s  %14s@," s.name s.x_label s.y_label;
    List.iter
      (fun (x, y) ->
        let width =
          if ymax <= 0. then 0 else int_of_float (Float.round (30. *. y /. ymax))
        in
        Format.fprintf ppf "%14.3f  %14.3f  |%s@," x y (String.make width '#'))
      pts;
    Format.fprintf ppf "@]"
end
