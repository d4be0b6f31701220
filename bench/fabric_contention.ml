(* Fabric contention (paper section 6 sizing): sweep offered load into
   one switch egress port for every queue discipline and record the
   drop/latency curves, the paper's question being how much buffering
   and service rate the internal link needs once several members
   converge on one destination.

   Twelve external ports (members 1-3) aim all their traffic at member
   0's subnets, so member 0's switch egress queue — drained at 300 Mbps
   — sees offered loads of 0.4x to 1.6x its service rate as the
   per-port rate sweeps 10..40 Mbps.  Everything is simulated time, so
   every number here is deterministic, and CI requires a run to be
   byte-identical to the committed BENCH_fabric.json.  Any invariant violation during the sweep increments
   [failures], which makes the harness exit nonzero.  The queued
   parallel-identity check lives in bench/equivalence.ml. *)

let failures = ref 0

let members = 4
let ports_per_member = 4
let seed = 11
let frame_len = 64
let wire_bits = float_of_int ((frame_len + 20) * 8)
let drain_mbps = 300.
let slices = 3
let slice_us = 400.

let disciplines =
  [
    "taildrop:64@300";
    "red:64:8:32:0.3@300";
    "prio:64:4@300";
    "wrr:64:4,2,1@300";
  ]

let loads = [ 0.1; 0.2; 0.3; 0.4 ]

let queue_cfg spec =
  match Cluster.Fabric_queue.parse spec with
  | Ok c -> c
  | Error m -> failwith ("fabric_contention: bad queue spec " ^ spec ^ ": " ^ m)

(* Members 1..3 fire at member 0's subnets at [load] of line rate; the
   IP precedence field spreads frames across service classes so the
   per-class disciplines have classes to arbitrate. *)
let spawn_converging c ~load =
  Equivalence.spawn_line_rate c ~seed ~mbps:(load *. 100.)
    ~ports:
      (List.init ((members - 1) * ports_per_member) (( + ) ports_per_member))
    ~gen:(fun ~rng g _ ->
      let f =
        Packet.Build.udp
          ~src:(Workload.Mix.subnet_addr ~subnet:(100 + g) ~host:1)
          ~dst:
            (Workload.Mix.subnet_addr
               ~subnet:(Sim.Rng.int rng ports_per_member)
               ~host:2)
          ~src_port:1000 ~dst_port:2000 ()
      in
      Packet.Ipv4.set_tos f (Sim.Rng.int rng 4 lsl 5);
      Packet.Ipv4.fill_cksum f;
      f)

type sample = {
  served : int;
  drop_frac : float;
  delay_us : float;
  hwm : int;
  pauses : int;
  red_drops : int;
  bp_refused : int;
}

let contention_run spec ~load =
  let fabric_queue = queue_cfg spec in
  let c = Cluster.create ~members ~ports_per_member ~fabric_queue () in
  spawn_converging c ~load;
  for _ = 1 to slices do
    Cluster.run_for c ~us:slice_us
  done;
  if not (Cluster.invariants_ok c) then begin
    incr failures;
    Report.info "  VIOLATION under [%s load=%.1f]; repro: router_cli cluster \
                 --fabric-queue '%s' --seed %d -d %g"
      spec load spec seed
      (float_of_int slices *. slice_us /. 1000.)
  end;
  let q = c.Cluster.in_queues.(0) in
  let module Fq = Cluster.Fabric_queue in
  let offered_q = Fq.enqueued q + Fq.dropped q in
  let served = Fq.serviced q in
  let fc = Cluster.fabric_counts c in
  {
    served;
    drop_frac =
      (if offered_q = 0 then 0.
       else float_of_int (Fq.dropped q) /. float_of_int offered_q);
    delay_us =
      (if served = 0 then 0.
       else float_of_int (Fq.delay_ps_total q) /. float_of_int served /. 1e6);
    hwm = Fq.hwm q;
    pauses = Fq.pauses q;
    red_drops = Fq.dropped_red q;
    bp_refused = fc.Cluster.bp_refused;
  }

let run () =
  Report.section
    "Fabric contention: offered-load sweep per queue discipline (section 6 \
     sizing)";
  let duration_s = float_of_int slices *. slice_us *. 1e-6 in
  let service_us = wire_bits /. drain_mbps in
  let attachments = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun load ->
          let s = contention_run spec ~load in
          let offered_mbps =
            float_of_int ((members - 1) * ports_per_member) *. load *. 100.
          in
          let u = offered_mbps /. drain_mbps in
          let served_mbps =
            float_of_int s.served *. wire_bits /. duration_s /. 1e6
          in
          Report.info
            "%-22s load %.1f (u=%.2f): served %5.1f Mbps, drop %5.1f%%, \
             delay %6.1f us, hwm %2d, %d pause(s), %d RED, %d refused"
            spec load u served_mbps (100. *. s.drop_frac) s.delay_us s.hwm
            s.pauses s.red_drops s.bp_refused;
          Report.row ~unit_:"Mbps"
            ~name:(Printf.sprintf "served [%s load=%.1f]" spec load)
            ~paper:(Float.min offered_mbps drain_mbps)
            ~measured:served_mbps;
          Report.row ~unit_:"frac"
            ~name:(Printf.sprintf "drop fraction [%s load=%.1f]" spec load)
            ~paper:(Float.max 0. (1. -. (1. /. u)))
            ~measured:s.drop_frac;
          (* paper delay: one service time, plus M/D/1-ish queueing below
             saturation or half the buffer above it — a rough target; the
             CI gate compares against the committed baseline, not this. *)
          Report.row ~unit_:"us"
            ~name:(Printf.sprintf "mean delay [%s load=%.1f]" spec load)
            ~paper:
              (service_us
              *. (1.
                 +.
                 if u >= 0.95 then 32. /. 2.
                 else u /. (2. *. (1. -. u))))
            ~measured:s.delay_us;
          attachments :=
            ( Printf.sprintf "%s load=%.1f" spec load,
              Telemetry.Json.Obj
                [
                  ("utilization", Telemetry.Json.Float u);
                  ("served", Telemetry.Json.Int s.served);
                  ("drop_fraction", Telemetry.Json.Float s.drop_frac);
                  ("mean_delay_us", Telemetry.Json.Float s.delay_us);
                  ("queue_hwm", Telemetry.Json.Int s.hwm);
                  ("bp_pauses", Telemetry.Json.Int s.pauses);
                  ("red_drops", Telemetry.Json.Int s.red_drops);
                  ("bp_refused", Telemetry.Json.Int s.bp_refused);
                ] )
            :: !attachments)
        loads)
    disciplines;
  Report.attach "fabric_contention"
    (Telemetry.Json.Obj (List.rev !attachments))
