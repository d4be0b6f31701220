type t = {
  name : string;
  mutable locked : bool;
  waiters : Engine.waker Queue.t;
  mutable contended : int;
}

let create ?(name = "mutex") () =
  { name; locked = false; waiters = Queue.create (); contended = 0 }

let lock m =
  if not m.locked then m.locked <- true
  else begin
    m.contended <- m.contended + 1;
    (* The unlocker transfers ownership to us; the lock stays held. *)
    Engine.suspend (fun w -> Queue.push w m.waiters)
  end

let unlock m =
  if not m.locked then invalid_arg (m.name ^ ": unlock of unlocked mutex");
  match Queue.take_opt m.waiters with
  | None -> m.locked <- false
  | Some w -> w ()

let contended_acquires m = m.contended
