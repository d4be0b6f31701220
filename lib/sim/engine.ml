(* Time is int64 picoseconds at the API, but the hot path keeps the
   clock and all durations in native ints: an OCaml [int64] is boxed, so
   every add/compare on the old representation allocated, and the run
   queue moves millions of events per wall-second.  62 usable bits of
   picoseconds cover ~53 days of simulated time, vastly beyond any
   run. *)

(* [Vacant] is never queued: it is what the run queue's unused slots
   hold, an immediate that keeps nothing reachable (see {!Wheel}). *)
type event =
  | Thunk of (unit -> unit)
  | Resume of (unit, unit) Effect.Deep.continuation
  | Vacant

type t = {
  mutable clock : int; (* ps *)
  mutable seq : int;
  queue : event Wheel.t;
  mutable live : int;
  mutable limit : int; (* horizon of the active [run], for wait elision *)
  mutable elided : int; (* waits satisfied in place, never queued *)
  mutable running : bool; (* ownership: set while [run]/[run_until_idle] *)
  (* Set while [running] and no nested run of another engine has
     interrupted this one: only then is the calling fiber one of ours. *)
  mutable dispatching : bool;
  (* Activation coalescing.  [coalescing] gates the in-place wait fast
     path as a whole: with it off, every wait becomes a queued event and
     the run is fully event-granular — the "unbatched" arm of the
     delivery-schedule equivalence gate.  [batch_depth] > 0 marks a
     declared batch span (one context activation working through a burst
     of frames); waits satisfied in place inside a span are counted in
     [absorbed] instead of [elided], so the two gauges stay disjoint. *)
  mutable coalescing : bool;
  mutable span_ctr : int; (* batch span ids; 0 is reserved for "none" *)
  mutable cur_span : int; (* open span id, 0 when outside any span *)
  mutable absorbed : int; (* waits absorbed into batch activations *)
  mutable batched_activations : int; (* spans completed without queueing *)
  mutable batch_frames : int; (* frames processed through batch spans *)
  (* Payload slot for the boxless wait path: [wait_in] stashes the
     duration here and perform the constant [Wait0] instead of
     allocating an effect block per suspension.  Valid only between
     the perform and the handler reading it back — nothing can run in
     between. *)
  mutable wait_arg : int;
  (* Same trick for [park]: the cell rides here so the perform carries
     no payload block.  Initialized to a dummy self-cell at [create]. *)
  mutable park_arg : cell;
  mutable ambient : int; (* lookups of this engine through [current_key] *)
  mutable resumes : int; (* fiber continuations dispatched *)
  mutable callbacks : int; (* thunks dispatched: steps, spawns, [call_at] *)
}

(* A reusable park point: one cell per (context, resource) pair
   replaces the per-suspension [fired] ref + waker closure + callback
   closure that [Suspend] allocates.  [wake_fn] is the cell's permanent
   waker — registrars hand it to waiter lists without minting a closure
   — and [register] is the registrar the parker installed; it runs once
   the park is recorded, preserving [Suspend]'s
   register-then-maybe-fire-immediately semantics exactly.

   [resume] is the event a wake schedules.  A fiber's park stores its
   captured continuation there; a stepped context on the callback
   driver stores its driver thunk once, at start, so its wakes and its
   queued waits schedule the same preallocated event and box
   nothing. *)
and cell = {
  mutable occupied : bool;
  mutable resume : event;
  pengine : t;
  wake_fn : unit -> unit;
  mutable register : unit -> unit;
}

type waker = unit -> unit

exception Deadlock of string

type _ Effect.t +=
  | Wait0 : unit Effect.t (* duration in [wait_arg]; constant, no box *)
  | Suspend : (waker -> unit) -> unit Effect.t
  | Park0 : unit Effect.t (* cell in [park_arg]; constant, no box *)

(* The engine currently dispatching events on THIS domain, read only by
   the ambient [now_i]/[wait_i] pair.  Domain-local (not a
   process-global ref): engines on sibling domains must never alias
   each other's dispatch state.  Saved and restored around
   [run]/[run_until_idle] to keep nested runs (an engine driven from
   inside another engine's fiber) correct.  Every lookup is counted on
   the engine it finds. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create () =
  (* The dummy cell breaks the [t]/[cell] knot so [park_arg] never needs
     an option (and so never boxes on the park fast path). *)
  let rec t =
    {
      clock = 0;
      seq = 0;
      queue = Wheel.create ~vacant:Vacant;
      live = 0;
      limit = 0;
      elided = 0;
      running = false;
      dispatching = false;
      coalescing = true;
      span_ctr = 0;
      cur_span = 0;
      absorbed = 0;
      batched_activations = 0;
      batch_frames = 0;
      wait_arg = 0;
      park_arg = dummy;
      ambient = 0;
      resumes = 0;
      callbacks = 0;
    }
  and dummy =
    { occupied = false; resume = Vacant; pengine = t; wake_fn = ignore;
      register = ignore }
  in
  t

let time t = Int64.of_int t.clock
let clock_i t = t.clock

let schedule_event t ~at ev =
  let seq = t.seq in
  t.seq <- seq + 1;
  Wheel.push t.queue ~now:t.clock ~time:at ~seq ev

let cell_wake c =
  if not c.occupied then invalid_arg "Engine: park cell woken while empty";
  c.occupied <- false;
  schedule_event c.pengine ~at:c.pengine.clock c.resume

let make_cell t =
  let rec c =
    { occupied = false; resume = Vacant; pengine = t;
      wake_fn = (fun () -> cell_wake c); register = ignore }
  in
  c

let on_park c f = c.register <- f
let cell_waker c = c.wake_fn

(* Record a park on [c] and run its registrar: the one path for a
   fiber's park and a stepped context's.  A real suspension breaks any
   open batch span — other contexts may interleave before this one
   resumes, so the activation no longer covers the batch. *)
let park_in t c name =
  t.cur_span <- 0;
  if c.occupied then
    invalid_arg ("Engine: park cell already occupied (" ^ name ^ ")");
  c.occupied <- true;
  c.register ()

(* Each fiber body runs under this handler; resuming a captured continuation
   re-enters the handler, so a fiber only needs wrapping once, at spawn. *)
let rec exec_fiber t name fn =
  let open Effect.Deep in
  t.live <- t.live + 1;
  (* The [Wait0] handler, allocated once per fiber at spawn.  The
     per-perform form (`Some (fun k -> ...)` inside [effc]) costs a
     closure and an option block on every real suspension — the single
     largest steady-state allocation once the data path itself is
     pooled.  The duration rides in [t.wait_arg] (set by the performer;
     nothing runs in between), so this closure captures only [t]. *)
  let wait0_fn (k : (unit, unit) continuation) =
    (* A real suspension: any open batch span is broken — other fibers
       may interleave before this one resumes, so the activation no
       longer covers the batch. *)
    t.cur_span <- 0;
    schedule_event t ~at:(t.clock + t.wait_arg) (Resume k)
  in
  let some_wait0 = Some wait0_fn in
  let park0_fn (k : (unit, unit) continuation) =
    let c = t.park_arg in
    c.resume <- Resume k;
    park_in t c name
  in
  let some_park0 = Some park0_fn in
  match_with fn ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.live <- t.live - 1;
          let bt = Printexc.get_raw_backtrace () in
          Fmt.epr "sim: fiber %S died: %s@." name (Printexc.to_string e);
          Printexc.raise_with_backtrace e bt);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait0 -> (some_wait0 : ((a, unit) continuation -> unit) option)
          | Park0 -> (some_park0 : ((a, unit) continuation -> unit) option)
          | Suspend f ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.cur_span <- 0;
                  let fired = ref false in
                  let waker () =
                    if !fired then
                      invalid_arg ("Engine: waker called twice (" ^ name ^ ")")
                    else begin
                      fired := true;
                      schedule_event t ~at:t.clock (Resume k)
                    end
                  in
                  f waker)
          | _ -> None);
    }

and spawn t name fn =
  schedule_event t ~at:t.clock (Thunk (fun () -> exec_fiber t name fn))

let call_at t ~at f =
  if at < t.clock then
    invalid_arg
      (Fmt.str "Engine.call_at: %d ps is before the clock (%d ps)" at t.clock);
  schedule_event t ~at (Thunk f)

let dispatch t ev =
  match ev with
  | Thunk f ->
      t.callbacks <- t.callbacks + 1;
      f ()
  | Resume k ->
      t.resumes <- t.resumes + 1;
      Effect.Deep.continue k ()
  | Vacant -> ()

(* Ownership assertion: an engine is single-owner while it dispatches.
   Catches both a re-entrant [run] of the same engine (a fiber driving
   its own engine) and two domains racing to drive one engine — either
   would corrupt the clock/queue silently. *)
let acquire t who =
  if t.running then
    invalid_arg (Fmt.str "Engine.%s: engine is already running" who);
  t.running <- true

(* [run]/[run_until_idle] driven from inside a fiber of another engine
   interrupt it: that engine stops dispatching until the nested run
   returns, so a fiber of the nested engine can neither wait on its
   clock nor park on one of its cells. *)
let with_dispatch t who f =
  acquire t who;
  let saved = Domain.DLS.get current_key in
  let outer_dispatching =
    match saved with
    | Some o ->
        let d = o.dispatching in
        o.dispatching <- false;
        d
    | None -> false
  in
  Domain.DLS.set current_key (Some t);
  t.dispatching <- true;
  Fun.protect
    ~finally:(fun () ->
      t.running <- false;
      t.dispatching <- false;
      Option.iter (fun o -> o.dispatching <- outer_dispatching) saved;
      Domain.DLS.set current_key saved)
    f

let run t ~until =
  let until = Int64.to_int until in
  with_dispatch t "run" (fun () ->
      t.limit <- until;
      let q = t.queue in
      let rec loop () =
        (* Queue drained: the clock stays at the last event.  Events
           remain beyond [until]: the clock advances to it. *)
        if not (Wheel.is_empty q) then
          if Wheel.min_time q <= until then begin
            let ev = Wheel.pop q in
            t.clock <- Wheel.popped_time q;
            dispatch t ev;
            loop ()
          end
          else t.clock <- until
      in
      loop ())

let run_until_idle t =
  with_dispatch t "run_until_idle" (fun () ->
      t.limit <- max_int;
      let q = t.queue in
      let rec loop () =
        if Wheel.is_empty q then begin
          if t.live > 0 then
            raise
              (Deadlock
                 (Fmt.str "%d context(s) suspended with no pending event"
                    t.live))
        end
        else begin
          let ev = Wheel.pop q in
          t.clock <- Wheel.popped_time q;
          dispatch t ev;
          loop ()
        end
      in
      loop ())

let live_fibers t = t.live
let events_scheduled t = t.seq
let elided_waits t = t.elided
let far_hits t = Wheel.far_hits t.queue
let ambient_lookups t = t.ambient
let fiber_resumes t = t.resumes
let callbacks_dispatched t = t.callbacks

(* Activation coalescing control + batch-span accounting.  A span is
   opened by a context about to work through a burst of frames; it
   survives only as long as the fiber never truly suspends (every wait
   inside it is absorbed in place).  Span ids — rather than a depth
   counter — keep the accounting correct when a span IS broken: the
   handler clears [cur_span] at suspension, so a later [batch_end] from
   the interrupted fiber can't steal credit from a span some other
   context opened in the meantime. *)
let set_coalescing t on = t.coalescing <- on

let batch_begin t =
  t.span_ctr <- t.span_ctr + 1;
  t.cur_span <- t.span_ctr;
  t.span_ctr

let batch_end t span ~frames =
  t.batch_frames <- t.batch_frames + frames;
  (* An activation that moved frames counts whether or not the span
     survived unbroken — the span check only guards the absorbed/elided
     gauge split, which needs to know a *currently open* span. *)
  if frames > 0 then t.batched_activations <- t.batched_activations + 1;
  if t.cur_span = span then t.cur_span <- 0

let absorbed_waits t = t.absorbed
let batched_activations t = t.batched_activations
let batch_frames_total t = t.batch_frames

(* Wait elision: when [t] has no pending event inside the wait window
   (and the window stays inside the active run's horizon), the fiber
   that called [wait_in] is exactly the event the scheduler would pop
   next — so advance the clock in place and keep running it.  No
   continuation capture, no queue traffic, no stack switch; the executed
   event sequence is identical by construction.  Ties are excluded
   ([min_time] must be strictly beyond the target) because a pending
   event at the same time holds a smaller sequence number and must run
   first.  Only a fiber of [t] may wait on [t], and such a fiber runs
   only while [t] dispatches: on an engine that is not dispatching (not
   running, or interrupted by a nested run of another engine) the
   caller is a fiber of some other engine, or no fiber at all, and
   suspending it would resume it on its own engine's clock. *)
let[@inline] elide t d =
  t.coalescing
  && (let target = t.clock + d in
      target <= t.limit && Wheel.min_time t.queue > target)
  && begin
       (* Inside a batch span the wait is part of one coalesced
          activation, not an independently elided event: keep the two
          gauges disjoint so their sum stays meaningful. *)
       if t.cur_span <> 0 then t.absorbed <- t.absorbed + 1
       else t.elided <- t.elided + 1;
       t.clock <- t.clock + d;
       true
     end

let wait_in t d =
  if d < 0 then invalid_arg "Engine.wait_in: negative duration";
  if not t.dispatching then
    invalid_arg "Engine.wait_in: engine is not dispatching";
  if not (elide t d) then begin
    (* Boxless suspension: duration via [wait_arg] + constant effect,
       handled by the fiber's preallocated [Wait0] arm. *)
    t.wait_arg <- d;
    Effect.perform Wait0
  end

(* The ambient pair: one counted lookup, then the handle form. *)
let ambient who =
  match Domain.DLS.get current_key with
  | Some t ->
      t.ambient <- t.ambient + 1;
      t
  | None -> invalid_arg ("Engine." ^ who ^ ": no engine is running")

let now_i () = clock_i (ambient "now_i")
let wait_i d = wait_in (ambient "wait_i") d

let suspend f = Effect.perform (Suspend f)

(* The cell knows its engine, so parking needs no lookup.  A cell whose
   engine is not dispatching cannot belong to the calling fiber (see
   [wait_in]): its engine's run loop would resume a continuation of
   another engine. *)
let park c =
  let t = c.pengine in
  if not t.dispatching then
    invalid_arg "Engine.park: cell's engine is not dispatching";
  t.park_arg <- c;
  Effect.perform Park0

(* Stepped contexts.  A step runs a context from one wait point to the
   next and returns the delay to its next one, or [parked] once it has
   installed the registrar that enrolls its cell's waker.

   The callback driver is [call_at] with [wait_in]'s elision: a delay
   with nothing due first advances the clock in place and steps again
   (counted as [wait_in] counts it), any other delay queues the cell's
   preallocated driver event, taking its sequence number at the instant
   a fiber's suspension would take its own.  A queued delay or a park
   breaks the open batch span, as a real suspension does.  So the event
   order, and every counter, is that of the same loop run as a fiber,
   without a continuation to capture or resume.

   The fiber driver runs the same step inside a fiber, for a context
   whose step can itself wait (a charge paid per operation, a memory
   channel with faults armed): it waits out each returned delay with
   [wait_in] and parks on the cell. *)
let parked = -1

let step_died t name e =
  let bt = Printexc.get_raw_backtrace () in
  t.live <- t.live - 1;
  Fmt.epr "sim: context %S died: %s@." name (Printexc.to_string e);
  Printexc.raise_with_backtrace e bt

let rec drive t c name step =
  match step () with
  | d when d >= 0 ->
      if not t.dispatching then
        invalid_arg "Engine: a step ran while its engine is not dispatching";
      if elide t d then drive t c name step
      else begin
        t.cur_span <- 0;
        schedule_event t ~at:(t.clock + d) c.resume
      end
  | _ -> park_in t c name
  | exception e -> step_died t name e

let start_steps c name ~suspends step =
  let t = c.pengine in
  if suspends then
    spawn t name (fun () ->
        let rec loop () =
          let d = step () in
          if d >= 0 then wait_in t d else park c;
          loop ()
        in
        loop ())
  else begin
    c.resume <- Thunk (fun () -> drive t c name step);
    schedule_event t ~at:t.clock
      (Thunk
         (fun () ->
           t.live <- t.live + 1;
           drive t c name step))
  end

module Clock = struct
  type clock = { ps : int }

  let of_mhz f =
    { ps = Int64.to_int (Int64.of_float (Float.round (1_000_000. /. f))) }

  let ps_of_cycles c n = Int64.of_int (c.ps * n)
  let ps_of_cycles_i c n = c.ps * n
  let cycles_of_ps c ps = Int64.to_float ps /. float_of_int c.ps
  let wait_cycles t c n = if n > 0 then wait_in t (c.ps * n)
end

let ps_of_ns x = Int64.of_float (Float.round (x *. 1000.))
let seconds ps = Int64.to_float ps /. 1e12
let of_seconds s = Int64.of_float (s *. 1e12)
