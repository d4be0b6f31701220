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

let null =
  {
    name = "null";
    code = [];
    state_bytes = 0;
    host_cycles = 0;
    action = (fun ~state:_ _ ~in_port:_ -> Forward_routed);
  }

let cost t = Vrp.static_cost t.code
let istore_slots t = Vrp.istore_slots t.code

let pp_verdict ppf = function
  | Continue -> Format.pp_print_string ppf "continue"
  | Forward p -> Format.fprintf ppf "forward(port %d)" p
  | Forward_routed -> Format.pp_print_string ppf "forward(routed)"
  | Drop -> Format.pp_print_string ppf "drop"
  | Divert l -> Format.fprintf ppf "divert(%a)" Desc.pp_level l
