type t = { mutable permits : int; queue : Engine.waker Queue.t }

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative";
  { permits = n; queue = Queue.create () }

let acquire s =
  if s.permits > 0 then s.permits <- s.permits - 1
  else Engine.suspend (fun w -> Queue.push w s.queue)

let try_acquire s =
  if s.permits > 0 then begin
    s.permits <- s.permits - 1;
    true
  end
  else false

let release s =
  match Queue.take_opt s.queue with
  | None -> s.permits <- s.permits + 1
  | Some w -> w ()
