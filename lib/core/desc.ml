type level = Microengine | Strongarm | Pentium

(* Every field mutable and every field a native int (the arrival stamp
   included — picoseconds fit an int by the engine-clock argument), so a
   descriptor can be recycled in place.  Descriptors sit in SRAM queues
   across context activations — long enough to survive a minor
   collection — so a freshly allocated record per packet does not just
   cost its 7 words, it gets *promoted*, and steady-state zero-promotion
   is impossible without reuse. *)
type t = {
  mutable buf : Ixp.Buffer_pool.handle;
  mutable len : int;
  mutable in_port : int;
  mutable out_port : int;
  mutable fid : int;
  mutable arrival : int;
  mutable pooled : bool; (* on the free list (double-release guard) *)
}

let make ~buf ~len ~in_port ~out_port ~arrival () =
  { buf; len; in_port; out_port; fid = -1; arrival; pooled = false }

(* Domain-local free list: descriptors are produced and consumed on the
   same domain (a cluster member's whole pipeline runs on one engine),
   so no locking, and the OCaml 5 per-domain minor heaps never see a
   cross-domain pointer.  Keyed in DLS rather than threaded through the
   loop records so every construction site of [Input_loop.t] /
   [Output_loop.t] stays untouched. *)
type pool = { mutable items : t array; mutable n : int }

let dummy =
  { buf = -1; len = 0; in_port = -1; out_port = -1; fid = -1; arrival = 0;
    pooled = false }

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { items = Array.make 256 dummy; n = 0 })

let take ~buf ~len ~in_port ~out_port ~fid ~arrival =
  let p = Domain.DLS.get pool_key in
  if p.n = 0 then { buf; len; in_port; out_port; fid; arrival; pooled = false }
  else begin
    p.n <- p.n - 1;
    let d = p.items.(p.n) in
    p.items.(p.n) <- dummy;
    d.pooled <- false;
    d.buf <- buf;
    d.len <- len;
    d.in_port <- in_port;
    d.out_port <- out_port;
    d.fid <- fid;
    d.arrival <- arrival;
    d
  end

let release d =
  if not d.pooled && d != dummy then begin
    d.pooled <- true;
    let p = Domain.DLS.get pool_key in
    let cap = Array.length p.items in
    if p.n = cap then begin
      let items = Array.make (2 * cap) dummy in
      Array.blit p.items 0 items 0 cap;
      p.items <- items
    end;
    p.items.(p.n) <- d;
    p.n <- p.n + 1
  end
