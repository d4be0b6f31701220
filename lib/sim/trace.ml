type event = { at : int64; who : string; what : string }

type t = {
  ring : event option array;
  mutable next : int;
  mutable count : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  { ring = Array.make capacity None; next = 0; count = 0 }

let record t ~at ~who ~what =
  t.ring.(t.next) <- Some { at; who; what };
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.count <- t.count + 1

let events t =
  let cap = Array.length t.ring in
  let n = min t.count cap in
  let start = if t.count <= cap then 0 else t.next in
  List.init n (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let dropped t = max 0 (t.count - Array.length t.ring)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let find t ~what_contains =
  List.filter (fun e -> contains ~needle:what_contains e.what) (events t)
