let table5 =
  [
    ("TCP Splicer", Tcp_splicer.forwarder);
    ("Wavelet Dropper", Wavelet_dropper.forwarder);
    ("ACK Monitor", Ack_monitor.forwarder);
    ("SYN Monitor", Syn_monitor.forwarder);
    ("Port Filter", Port_filter.forwarder);
    ("IP", Ip.minimal);
  ]

let general_suite =
  [ Syn_monitor.forwarder; Perf_monitor.forwarder; Port_filter.forwarder ]

(* Admission's branch-delay inflation of instruction counts. *)
let branch_factor = 1.05

let full_budget_suite ~budget () =
  let base = general_suite in
  let used =
    List.fold_left
      (fun acc f -> Router.Vrp.add_cost acc (Router.Forwarder.cost f))
      Router.Vrp.zero_cost base
  in
  (* Admission control inflates instruction counts by the branch-delay
     factor, so the padding must be sized in post-inflation cycles. *)
  let inflate n = int_of_float (Float.round (float_of_int n *. branch_factor)) in
  let used_cycles =
    List.fold_left
      (fun acc f -> acc + inflate (Router.Forwarder.cost f).Router.Vrp.instr)
      0 base
  in
  let spare_cycles = max 0 (budget.Router.Vrp.b_cycles - used_cycles) in
  let spare_instr = int_of_float (float_of_int spare_cycles /. branch_factor) in
  let used_xfers =
    (used.Router.Vrp.sram_read_bytes + 3) / 4
    + ((used.Router.Vrp.sram_write_bytes + 3) / 4)
  in
  let spare_xfers = max 0 (budget.Router.Vrp.b_sram_transfers - used_xfers) in
  let padding =
    Router.Forwarder.make ~name:"budget-padding"
      ~code:
        [
          Router.Vrp.Instr spare_instr; Router.Vrp.Sram_read (4 * spare_xfers);
        ]
      ~state_bytes:0
      (fun ~state:_ _ ~in_port:_ -> Router.Forwarder.Continue)
  in
  base @ [ padding ]
