type 'a t = { items : 'a Queue.t; ready : Semaphore.t }

let create () = { items = Queue.create (); ready = Semaphore.create 0 }

let put mb v =
  Queue.push v mb.items;
  Semaphore.release mb.ready

let get mb =
  Semaphore.acquire mb.ready;
  Queue.pop mb.items

let try_get mb =
  if Semaphore.try_acquire mb.ready then Some (Queue.pop mb.items) else None
