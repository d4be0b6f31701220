type discipline =
  | Bypass
  | Tail_drop
  | Red of { min_th : int; max_th : int; max_p : float; wq : float }
  | Prio of { classes : int }
  | Wrr of { weights : int array }

type config = { disc : discipline; capacity : int; rate_mbps : float }

let default_rate = 1000.
let bypass = { disc = Bypass; capacity = 0; rate_mbps = default_rate }
let is_bypass c = c.disc = Bypass

let classes c =
  match c.disc with
  | Bypass | Tail_drop | Red _ -> 1
  | Prio { classes } -> classes
  | Wrr { weights } -> Array.length weights

(* --- spec grammar ------------------------------------------------------ *)

(* [%g] where it parses back exactly, else every digit: [to_spec] must
   round-trip. *)
let num v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_spec c =
  let body =
    match c.disc with
    | Bypass -> "none"
    | Tail_drop -> Printf.sprintf "taildrop:%d" c.capacity
    | Red { min_th; max_th; max_p; wq } ->
        let base =
          Printf.sprintf "red:%d:%d:%d:%s" c.capacity min_th max_th (num max_p)
        in
        if wq = 0.25 then base else base ^ ":" ^ num wq
    | Prio { classes } -> Printf.sprintf "prio:%d:%d" c.capacity classes
    | Wrr { weights } ->
        Printf.sprintf "wrr:%d:%s" c.capacity
          (String.concat ","
             (List.map string_of_int (Array.to_list weights)))
  in
  if c.disc = Bypass || c.rate_mbps = default_rate then body
  else Printf.sprintf "%s@%s" body (num c.rate_mbps)

let parse spec =
  let ( let* ) = Result.bind in
  let s = String.trim spec in
  let* body, rate_mbps =
    match String.index_opt s '@' with
    | None -> Ok (s, default_rate)
    | Some i -> (
        let body = String.sub s 0 i in
        let r = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt (String.trim r) with
        | Some v when v > 0. && Float.is_finite v -> Ok (body, v)
        | _ -> Error (Printf.sprintf "bad service rate %S (finite Mbps > 0)" r))
  in
  let int_field name s =
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> Ok v
    | _ -> Error (Printf.sprintf "%s must be a non-negative integer, got %S" name s)
  in
  let float_field name s =
    match float_of_string_opt (String.trim s) with
    | Some v when v >= 0. && Float.is_finite v -> Ok v
    | _ ->
        Error
          (Printf.sprintf "%s must be a finite non-negative number, got %S"
             name s)
  in
  let cap s =
    let* c = int_field "capacity" s in
    if c < 1 then Error "capacity must be at least 1" else Ok c
  in
  match String.split_on_char ':' (String.trim body) with
  | [ "" ] | [ "none" ] | [ "bypass" ] -> Ok bypass
  | [ "taildrop"; c ] ->
      let* capacity = cap c in
      Ok { disc = Tail_drop; capacity; rate_mbps }
  | "red" :: c :: mn :: mx :: mp :: rest ->
      let* capacity = cap c in
      let* min_th = int_field "min_th" mn in
      let* max_th = int_field "max_th" mx in
      let* max_p = float_field "max_p" mp in
      let* wq =
        match rest with
        | [] -> Ok 0.25
        | [ w ] -> float_field "wq" w
        | _ -> Error (Printf.sprintf "too many fields in %S" body)
      in
      if min_th >= max_th then Error "red: min_th must be below max_th"
      else if max_p > 1. then Error "red: max_p outside [0, 1]"
      else if wq <= 0. || wq > 1. then Error "red: wq outside (0, 1]"
      else Ok { disc = Red { min_th; max_th; max_p; wq }; capacity; rate_mbps }
  | [ "prio"; c; n ] ->
      let* capacity = cap c in
      let* classes = int_field "classes" n in
      if classes < 2 || classes > 8 then Error "prio: classes outside [2, 8]"
      else Ok { disc = Prio { classes }; capacity; rate_mbps }
  | [ "wrr"; c; ws ] ->
      let* capacity = cap c in
      let* weights =
        List.fold_left
          (fun acc w ->
            let* ws = acc in
            let* v = int_field "weight" w in
            if v < 1 then Error "wrr: weights must be at least 1"
            else Ok (v :: ws))
          (Ok [])
          (String.split_on_char ',' ws)
      in
      let weights = Array.of_list (List.rev weights) in
      if Array.length weights < 2 || Array.length weights > 8 then
        Error "wrr: need 2 to 8 weights"
      else Ok { disc = Wrr { weights }; capacity; rate_mbps }
  | _ ->
      Error
        (Printf.sprintf
           "expected none | taildrop:CAP | red:CAP:MIN:MAX:MAXP[:WQ] | \
            prio:CAP:CLASSES | wrr:CAP:W0,W1,... (optionally @MBPS) in %S"
           spec)

(* --- RED curve --------------------------------------------------------- *)

let red_drop_prob ~min_th ~max_th ~max_p ~avg =
  if avg < float_of_int min_th then 0.
  else if avg >= float_of_int max_th then 1.
  else max_p *. (avg -. float_of_int min_th) /. float_of_int (max_th - min_th)

(* --- the queue --------------------------------------------------------- *)

type 'a item = { payload : 'a; cls : int; len : int; enq_ps : int }

type 'a t = {
  engine : Sim.Engine.t;
  cfg : config;
  rng : Sim.Rng.t;
  deliver : 'a -> unit;
  queues : 'a item Queue.t array;
  weights : int array; (* [||] unless Wrr *)
  mutable w_class : int;
  mutable w_left : int;
  mutable occ : int;
  mutable busy : bool;
  mutable gen : int; (* flush generation: strands the frame in service *)
  mutable avg : float; (* RED's EWMA of occupancy *)
  pause_hi : int;
  pause_lo : int;
  mutable is_paused : bool;
  mutable n_pauses : int;
  mutable n_enqueued : int;
  mutable n_serviced : int;
  mutable n_dropped_tail : int;
  mutable n_dropped_red : int;
  mutable n_flushed : int;
  mutable n_hwm : int;
  mutable delay_ps : int;
}

let create ~engine ~cfg ~rng ~deliver () =
  let n = classes cfg in
  let weights = match cfg.disc with Wrr { weights } -> weights | _ -> [||] in
  {
    engine;
    cfg;
    rng;
    deliver;
    queues = Array.init n (fun _ -> Queue.create ());
    weights;
    w_class = 0;
    w_left = (if Array.length weights > 0 then weights.(0) else 0);
    occ = 0;
    busy = false;
    gen = 0;
    avg = 0.;
    pause_hi = max 1 (cfg.capacity * 3 / 4);
    pause_lo = cfg.capacity / 2;
    is_paused = false;
    n_pauses = 0;
    n_enqueued = 0;
    n_serviced = 0;
    n_dropped_tail = 0;
    n_dropped_red = 0;
    n_flushed = 0;
    n_hwm = 0;
    delay_ps = 0;
  }

let occupancy t = t.occ
let paused t = t.is_paused
let enqueued t = t.n_enqueued
let serviced t = t.n_serviced
let dropped_tail t = t.n_dropped_tail
let dropped_red t = t.n_dropped_red
let dropped t = t.n_dropped_tail + t.n_dropped_red
let flushed t = t.n_flushed
let hwm t = t.n_hwm
let pauses t = t.n_pauses
let delay_ps_total t = t.delay_ps

(* Wire time of a frame at the hop's drain rate, preamble and inter-frame
   gap included (the same 20-byte overhead {!Ixp.Mac_port.frame_time_ps}
   charges). *)
let service_ps t ~len =
  Int64.to_int
    (Int64.of_float (float_of_int ((len + 20) * 8) /. t.cfg.rate_mbps *. 1e6))

(* Deterministic RED admission: no draw below [min_th] (p = 0) or at and
   above [max_th] (p = 1), one draw on the linear ramp — enabling RED on
   one hop never shifts any other stream, and an uncongested RED queue
   draws nothing at all. *)
let red_rejects t ~min_th ~max_th ~max_p ~wq =
  t.avg <- t.avg +. (wq *. (float_of_int t.occ -. t.avg));
  let p = red_drop_prob ~min_th ~max_th ~max_p ~avg:t.avg in
  if p <= 0. then false
  else if p >= 1. then true
  else Sim.Rng.float t.rng 1.0 < p

let dec_occ t =
  t.occ <- t.occ - 1;
  if t.is_paused && t.occ <= t.pause_lo then t.is_paused <- false

(* Next frame to put on the wire.  [pick] removes it from its class FIFO
   but leaves it counted in [occ] until its service completes — occupancy
   covers the frame in service, as a real port's buffer does. *)
let pick t =
  match t.cfg.disc with
  | Bypass -> None
  | Tail_drop | Red _ -> Queue.take_opt t.queues.(0)
  | Prio _ ->
      let rec go c =
        if c < 0 then None
        else
          match Queue.take_opt t.queues.(c) with
          | Some _ as it -> it
          | None -> go (c - 1)
      in
      go (Array.length t.queues - 1)
  | Wrr _ ->
      let n = Array.length t.weights in
      let rec go tries =
        if tries < 0 then None
        else if t.w_left > 0 && not (Queue.is_empty t.queues.(t.w_class)) then begin
          t.w_left <- t.w_left - 1;
          Queue.take_opt t.queues.(t.w_class)
        end
        else begin
          (* Out of credit, or credit left but nothing queued (unused
             credit is forfeited): move to the next class. *)
          t.w_class <- (t.w_class + 1) mod n;
          t.w_left <- t.weights.(t.w_class);
          go (tries - 1)
        end
      in
      go n

let rec serve t =
  match pick t with
  | None -> t.busy <- false
  | Some it ->
      let g = t.gen in
      Sim.Engine.wait_in t.engine (service_ps t ~len:it.len);
      if t.gen <> g then begin
        (* The link was cut (crash) while this frame was in service:
           strand it, accounted as flushed. *)
        t.n_flushed <- t.n_flushed + 1;
        dec_occ t
      end
      else begin
        dec_occ t;
        t.n_serviced <- t.n_serviced + 1;
        t.delay_ps <- t.delay_ps + (Sim.Engine.clock_i t.engine - it.enq_ps);
        t.deliver it.payload
      end;
      serve t

let offer t ~cls ~len x =
  match t.cfg.disc with
  | Bypass ->
      t.n_enqueued <- t.n_enqueued + 1;
      t.n_serviced <- t.n_serviced + 1;
      t.deliver x;
      true
  | disc ->
      if t.occ >= t.cfg.capacity then begin
        t.n_dropped_tail <- t.n_dropped_tail + 1;
        false
      end
      else if
        match disc with
        | Red { min_th; max_th; max_p; wq } ->
            red_rejects t ~min_th ~max_th ~max_p ~wq
        | _ -> false
      then begin
        t.n_dropped_red <- t.n_dropped_red + 1;
        false
      end
      else begin
        let cls = min (max cls 0) (Array.length t.queues - 1) in
        Queue.push
          { payload = x; cls; len; enq_ps = Sim.Engine.clock_i t.engine }
          t.queues.(cls);
        t.occ <- t.occ + 1;
        t.n_enqueued <- t.n_enqueued + 1;
        if t.occ > t.n_hwm then t.n_hwm <- t.occ;
        if (not t.is_paused) && t.occ >= t.pause_hi then begin
          t.is_paused <- true;
          t.n_pauses <- t.n_pauses + 1
        end;
        if not t.busy then begin
          t.busy <- true;
          Sim.Engine.spawn t.engine "fabric-queue" (fun () -> serve t)
        end;
        true
      end

let flush t =
  let n = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues in
  Array.iter Queue.clear t.queues;
  t.n_flushed <- t.n_flushed + n;
  t.occ <- t.occ - n;
  t.gen <- t.gen + 1;
  if t.is_paused && t.occ <= t.pause_lo then t.is_paused <- false;
  n
