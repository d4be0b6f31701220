type cls = {
  rate_pps : float;
  mutable tokens : float;
  mutable last : int64;
  mutable low : int;
}

type t = { classes : cls array }

(* Token-bucket depth in packets. *)
let burst = 16.

let create ~link_pps ~shares () =
  if Array.length shares = 0 then invalid_arg "Wfq.create: no classes";
  if Array.exists (fun s -> s <= 0.) shares then
    invalid_arg "Wfq.create: non-positive share";
  let total = Array.fold_left ( +. ) 0. shares in
  {
    classes =
      Array.map
        (fun s ->
          {
            rate_pps = link_pps *. s /. total;
            tokens = burst;
            last = 0L;
            low = 0;
          })
        shares;
  }

let pick t ~class_id ~now =
  let c = t.classes.(class_id) in
  let dt = Sim.Engine.seconds (Int64.sub now c.last) in
  c.last <- now;
  c.tokens <- Float.min burst (c.tokens +. (dt *. c.rate_pps));
  if c.tokens >= 1. then begin
    c.tokens <- c.tokens -. 1.;
    `High
  end
  else begin
    c.low <- c.low + 1;
    `Low
  end

(* Token arithmetic in fixed point: load the bucket word, a few ALU ops,
   store it back. *)
let vrp_code = [ Vrp.Sram_read 4; Vrp.Instr 12; Vrp.Sram_write 4 ]

let demoted t ~class_id = t.classes.(class_id).low
