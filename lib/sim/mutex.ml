type t = {
  name : string;
  mutable locked : bool;
  waiters : Engine.waker Queue.t;
  mutable contended : int;
}

let create ?(name = "mutex") () =
  { name; locked = false; waiters = Queue.create (); contended = 0 }

let try_lock m = (not m.locked) && (m.locked <- true; true)

(* The unlocker transfers ownership to the waiter; the lock stays
   held. *)
let register m w =
  m.contended <- m.contended + 1;
  Queue.push w m.waiters

let lock m = if not (try_lock m) then Engine.suspend (register m)

let unlock m =
  if not m.locked then invalid_arg (m.name ^ ": unlock of unlocked mutex");
  match Queue.take_opt m.waiters with
  | None -> m.locked <- false
  | Some w -> w ()

let contended_acquires m = m.contended
