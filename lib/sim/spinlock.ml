type t = {
  engine : Engine.t;
  retry_ps : int;
  mutable locked : bool;
  mutable attempts : int;
  mutable acquisitions : int;
}

let create ~engine ~retry_ps () =
  {
    engine;
    retry_ps = Int64.to_int retry_ps;
    locked = false;
    attempts = 0;
    acquisitions = 0;
  }

let rec lock l ~attempt =
  l.attempts <- l.attempts + 1;
  attempt ();
  if l.locked then begin
    Engine.wait_in l.engine l.retry_ps;
    lock l ~attempt
  end
  else begin
    l.locked <- true;
    l.acquisitions <- l.acquisitions + 1
  end

let unlock l ~attempt =
  if not l.locked then invalid_arg "Spinlock.unlock: unlock of unlocked spinlock";
  attempt ();
  l.locked <- false

let attempts l = l.attempts
let acquisitions l = l.acquisitions
