type verdict =
  | Continue
  | Forward of int
  | Forward_routed
  | Drop
  | Divert of Desc.level

type action = state:Bytes.t -> Packet.Frame.t -> in_port:int -> verdict

type t = {
  name : string;
  code : Vrp.code;
  state_bytes : int;
  host_cycles : int;
  action : action;
}

let make ~name ~code ~state_bytes ?host_cycles action =
  if state_bytes < 0 then invalid_arg "Forwarder.make: state_bytes";
  let host_cycles =
    match host_cycles with
    | Some c -> c
    | None -> Vrp.cycles_estimate Ixp.Config.default (Vrp.static_cost code)
  in
  { name; code; state_bytes; host_cycles; action }

let cost t = Vrp.static_cost t.code
let istore_slots t = Vrp.istore_slots t.code
