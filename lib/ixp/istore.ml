type block = { handle : int; slots : int }

type t = {
  capacity : int;
  write_cycles_per_instr : int;
  mutable blocks : block list;
  mutable next_handle : int;
}

let create (cfg : Config.t) =
  {
    capacity = cfg.istore_slots - cfg.istore_ri_slots;
    write_cycles_per_instr = cfg.istore_write_cycles_per_instr;
    blocks = [];
    next_handle = 0;
  }

let capacity_vrp t = t.capacity

let used t = List.fold_left (fun acc b -> acc + b.slots) 0 t.blocks

let free_slots t = t.capacity - used t

let install t ~slots =
  if slots <= 0 then Error "istore: non-positive size"
  else if slots > free_slots t then
    Error
      (Printf.sprintf "istore: %d slots requested, %d free" slots
         (free_slots t))
  else begin
    let handle = t.next_handle in
    t.next_handle <- handle + 1;
    t.blocks <- { handle; slots } :: t.blocks;
    Ok handle
  end

let remove t handle =
  t.blocks <- List.filter (fun b -> b.handle <> handle) t.blocks

let write_cost_cycles t ~slots = slots * t.write_cycles_per_instr
