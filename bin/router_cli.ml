(* Command-line driver for the simulated router.

   - [run]: drive the full three-level router with synthetic traffic and
     print the forwarding summary.
   - [peak]: the section 3 FIFO-to-FIFO peak-rate experiment with
     selectable queueing disciplines (Table 1's knobs).
   - [budget]: the section 4.3 VRP budget for a given line rate. *)

open Cmdliner

(* Shared --metrics flag: dump a telemetry snapshot as JSON to a file, or
   to stdout when FILE is "-". *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump a JSON telemetry snapshot (per-MicroEngine, per-queue, \
           per-stage instruments) after the run; \"-\" writes to stdout.")

let dump_metrics dest json =
  match dest with
  | None -> ()
  | Some "-" -> Format.printf "%a@." Telemetry.Json.pp json
  | Some file -> (
      match open_out file with
      | oc ->
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Telemetry.Json.to_string json);
              output_char oc '\n');
          Format.printf "wrote metrics to %s@." file
      | exception Sys_error msg ->
          Format.eprintf "cannot write metrics: %s@." msg;
          exit 1)

(* Range-checked number converters: a value outside the range the
   simulation accepts is a usage error (exit 124) that names the option,
   never an exception out of the run. *)
let int_in ?(max = max_int) min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | Some _ when max = max_int -> Error (Printf.sprintf "%s is below %d" s min)
    | Some _ -> Error (Printf.sprintf "%s is not in %d..%d" s min max)
    | None -> Error (Printf.sprintf "%S is not an integer" s)
  in
  Arg.conv' ~docv:"N" (parse, Format.pp_print_int)

let float_where what ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when ok x -> Ok x
    | Some _ -> Error (Printf.sprintf "%s is not %s" s what)
    | None -> Error (Printf.sprintf "%S is not a number" s)
  in
  Arg.conv' (parse, Format.pp_print_float)

let positive = float_where "a positive number" (fun x -> x > 0. && x < infinity)
let share = float_where "a share in 0..1" (fun x -> x >= 0. && x <= 1.)

(* Ethernet frame lengths the generators can build. *)
let frame_bytes = int_in ~max:Packet.Build.max_frame Packet.Build.min_frame

let subnet_routes r n_ports =
  for p = 0 to n_ports - 1 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" p))
      ~port:p
  done

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let duration =
    Arg.(value & opt float 10.0 & info [ "d"; "duration" ] ~docv:"MS"
           ~doc:"Simulated milliseconds to run.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let mbps =
    Arg.(value & opt positive 100. & info [ "mbps" ] ~docv:"MBPS"
           ~doc:"Per-port link speed (positive).")
  in
  let frame_len =
    Arg.(value & opt frame_bytes 64 & info [ "frame" ] ~docv:"BYTES"
           ~doc:"Frame length (64..1518).")
  in
  let exceptional =
    Arg.(value & opt share 0. & info [ "exceptional" ] ~docv:"SHARE"
           ~doc:"Fraction of frames carrying IP options (divert to the \
                 StrongARM), in 0..1.")
  in
  let syn_monitor =
    Arg.(value & flag & info [ "syn-monitor" ]
           ~doc:"Install the SYN-monitor data forwarder at boot.")
  in
  let workload =
    Arg.(value & opt string "uniform" & info [ "workload" ] ~docv:"SPEC"
           ~doc:"Traffic shape per port: $(b,uniform) (line-rate \
                 minimum-size UDP, destinations uniform over the routed \
                 subnets) or $(b,flows)[:key=value,...] — Internet-realistic \
                 flows with Zipf destination popularity, heavy-tailed \
                 (Pareto) sizes and bursty MMPP arrivals (keys: pps, hosts, \
                 subnets, zipf, pareto, minpkts, maxpkts, conc, burst, \
                 burst_us, idle_us, frame, udp, dscp — see \
                 lib/workload/flows.mli).")
  in
  let classifier_rules =
    Arg.(value & opt int 0 & info [ "classifier" ] ~docv:"N"
           ~doc:"Install the tuple-space multi-field classifier with N \
                 seeded realistic rules (5-tuple + DSCP; 0 = off).  Rules \
                 are generated from --seed, so a run replays exactly.")
  in
  let faults =
    Arg.(value & opt string "none" & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault-injection scenario as comma-separated key:value \
                 pairs, e.g. mac_corrupt:0.01,pool_fail:0.005 (see \
                 lib/fault/scenario.mli for the keys).  Seeded from \
                 --seed, so a failing run replays exactly.")
  in
  let run duration seed mbps frame_len exceptional syn_monitor workload
      classifier_rules faults metrics =
    let scenario =
      match Fault.Scenario.parse faults with
      | Ok s -> Fault.Scenario.with_seed s (Int64.of_int seed)
      | Error msg ->
          Format.eprintf "bad --faults spec: %s@." msg;
          exit 2
    in
    let flows_cfg =
      if workload = "uniform" then None
      else
        match Workload.Flows.parse workload with
        | Ok cfg -> Some cfg
        | Error msg ->
            Format.eprintf "bad --workload spec: %s@." msg;
            exit 2
    in
    let config =
      { Router.default_config with Router.port_mbps = mbps;
        Router.faults = scenario }
    in
    let r = Router.create ~config ~alloc_gauges:true () in
    subnet_routes r config.Router.n_ports;
    let fid =
      if syn_monitor then
        match
          Router.Iface.install r.Router.iface ~key:Packet.Flow.All
            ~fwdr:Forwarders.Syn_monitor.forwarder ~where:Router.Iface.ME ()
        with
        | Ok fid -> Some fid
        | Error es -> failwith (String.concat "; " es)
      else None
    in
    let cls =
      if classifier_rules <= 0 then None
      else begin
        let cls = Forwarders.Classifier.create () in
        List.iter
          (Forwarders.Classifier.add cls)
          (Forwarders.Classifier.Gen.rules
             ~rng:(Sim.Rng.create (Int64.of_int (seed + 77)))
             ~n:classifier_rules ~n_ports:config.Router.n_ports ());
        Forwarders.Classifier.attach cls
          (Telemetry.Registry.scope r.Router.telemetry "classifier");
        match
          Router.Iface.install r.Router.iface ~key:Packet.Flow.All
            ~fwdr:
              (Forwarders.Classifier.forwarder
                 ~cm:config.Router.cm cls)
            ~where:Router.Iface.ME ()
        with
        | Ok _ -> Some cls
        | Error es -> failwith (String.concat "; " es)
      end
    in
    Router.start r;
    let rng = Sim.Rng.create (Int64.of_int seed) in
    for p = 0 to config.Router.n_ports - 1 do
      let rng = Sim.Rng.split rng in
      match flows_cfg with
      | Some cfg ->
          let fl = Workload.Flows.create ~rng cfg in
          ignore
            (Workload.Flows.spawn fl r.Router.engine
               ~name:(Printf.sprintf "gen%d" p)
               ~offer:(fun f -> Router.inject r ~port:p f))
      | None ->
          let base =
            Workload.Mix.udp_uniform ~rng ~n_subnets:config.Router.n_ports
              ~frame_len ()
          in
          let gen =
            if exceptional > 0. then
              Workload.Mix.with_options_share ~rng:(Sim.Rng.split rng)
                ~share:exceptional base
            else base
          in
          ignore
            (Workload.Source.spawn_line_rate r.Router.engine
               ~name:(Printf.sprintf "gen%d" p)
               ~mbps ~frame_len ~gen
               ~offer:(fun f -> Router.inject r ~port:p f)
               ())
    done;
    Router.run_for r ~us:(duration *. 1000.);
    Format.printf "%a@." Router.pp_summary r;
    Option.iter
      (fun fid ->
        Format.printf "syn-monitor: %d SYNs@."
          (Forwarders.Syn_monitor.syn_count
             (Option.get (Router.Iface.getdata r.Router.iface fid))))
      fid;
    Option.iter
      (fun cls ->
        Format.printf
          "classifier: %d rules in %d tuples, cache %d hit / %d miss \
           (%.1f%% hit), %.2f probes/miss@."
          (Forwarders.Classifier.n_rules cls)
          (Forwarders.Classifier.n_tuples cls)
          (Forwarders.Classifier.cache_hits cls)
          (Forwarders.Classifier.cache_misses cls)
          (100.
          *. float_of_int (Forwarders.Classifier.cache_hits cls)
          /. float_of_int
               (max 1
                  (Forwarders.Classifier.cache_hits cls
                  + Forwarders.Classifier.cache_misses cls)))
          (float_of_int (Forwarders.Classifier.probes cls)
          /. float_of_int (max 1 (Forwarders.Classifier.cache_misses cls))))
      cls;
    dump_metrics metrics (Router.telemetry_snapshot r);
    if not (Fault.Invariant.ok r.Router.invariants) then begin
      Format.eprintf "%a@." Fault.Invariant.pp_report r.Router.invariants;
      Format.eprintf
        "repro: router_cli run --faults '%s' --seed %d -d %g --mbps %g \
         --frame %d@."
        (Fault.Scenario.to_spec scenario)
        seed duration mbps frame_len;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Drive the full three-level router at line rate.")
    Term.(
      const run $ duration $ seed $ mbps $ frame_len $ exceptional
      $ syn_monitor $ workload $ classifier_rules $ faults $ metrics_arg)

(* --- peak ------------------------------------------------------------ *)

let peak_cmd =
  let input_disc =
    let disc =
      Arg.enum
        [
          ("i1", Router.Fixed_infra.I1_private);
          ("i2", Router.Fixed_infra.I2_protected);
          ("spin", Router.Fixed_infra.I_spinlock);
          ("dyn", Router.Fixed_infra.I_dynamic);
        ]
    in
    Arg.(value & opt disc Router.Fixed_infra.I2_protected
           & info [ "input" ] ~docv:"DISC"
               ~doc:"Input discipline: i1, i2, spin, dyn.")
  in
  let output_disc =
    let disc =
      Arg.enum
        [
          ("o1", Router.Fixed_infra.O1_batch);
          ("o2", Router.Fixed_infra.O2_single);
          ("o3", Router.Fixed_infra.O3_multi);
        ]
    in
    Arg.(value & opt disc Router.Fixed_infra.O1_batch
           & info [ "output" ] ~docv:"DISC" ~doc:"Output discipline: o1-o3.")
  in
  let contention =
    Arg.(value & flag & info [ "contention" ]
           ~doc:"All packets to one queue (I.3 / Figure 10).")
  in
  let blocks =
    Arg.(value & opt int 0 & info [ "vrp-blocks" ] ~docv:"N"
           ~doc:"Combination VRP blocks (10 instr + 4B SRAM) per packet.")
  in
  let in_ctx =
    Arg.(value & opt (int_in 1) 16 & info [ "input-contexts" ] ~docv:"N"
           ~doc:"Input-loop contexts (at least 1).")
  in
  let out_ctx =
    Arg.(value & opt (int_in 1) 8 & info [ "output-contexts" ] ~docv:"N"
           ~doc:"Output-loop contexts (at least 1).")
  in
  let run input_disc output_disc contention blocks in_ctx out_ctx metrics =
    let open Router.Fixed_infra in
    let code =
      List.concat
        (List.init blocks (fun _ ->
             [ Router.Vrp.Instr 10; Router.Vrp.Sram_read 4 ]))
    in
    let telemetry = Telemetry.Registry.create () in
    let r =
      run ~telemetry
        {
          default with
          input_disc;
          output_disc;
          contention;
          vrp_blocks = code;
          n_input_contexts = in_ctx;
          n_output_contexts = out_ctx;
        }
    in
    Format.printf "%a@." pp_result r;
    dump_metrics metrics (Telemetry.Registry.snapshot telemetry)
  in
  Cmd.v
    (Cmd.info "peak"
       ~doc:"FIFO-to-FIFO peak forwarding rate (section 3 experiments).")
    Term.(
      const run $ input_disc $ output_disc $ contention $ blocks $ in_ctx
      $ out_ctx $ metrics_arg)

(* --- budget ---------------------------------------------------------- *)

let budget_cmd =
  let pps =
    Arg.(value & opt float 1.128e6 & info [ "pps" ] ~docv:"PPS"
           ~doc:"Aggregate line rate in packets per second.")
  in
  let contexts =
    Arg.(value & opt int 16 & info [ "contexts" ] ~docv:"N"
           ~doc:"Input contexts.")
  in
  let run pps contexts =
    let b =
      Router.Capacity.vrp_budget Router.Capacity.default ~contexts
        ~line_rate_pps:pps ~hashes:3
    in
    Format.printf "VRP budget at %.3f Mpps with %d contexts: %a@." (pps /. 1e6)
      contexts Router.Vrp.pp_budget b
  in
  Cmd.v
    (Cmd.info "budget"
       ~doc:"VRP budget available at a line rate (section 4.3).")
    Term.(const run $ pps $ contexts)

(* --- cluster --------------------------------------------------------- *)

let cluster_cmd =
  let duration =
    Arg.(value & opt float 3.0 & info [ "d"; "duration" ] ~docv:"MS"
           ~doc:"Simulated milliseconds to run.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")
  in
  let members =
    Arg.(value & opt (int_in 2) 4 & info [ "members" ] ~docv:"N"
           ~doc:"Pentium/IXP pairs behind the switch (at least 2).")
  in
  let ports_per_member =
    Arg.(value & opt int 4 & info [ "ports-per-member" ] ~docv:"N"
           ~doc:"External 100 Mbps ports per member.")
  in
  let frame_len =
    Arg.(value & opt frame_bytes 64 & info [ "frame" ] ~docv:"BYTES"
           ~doc:"Frame length (64..1518).")
  in
  let domains =
    Arg.(value & opt (int_in 1) 1 & info [ "domains" ] ~docv:"N"
           ~doc:"OCaml domains to spread the members over (conservative \
                 lookahead execution).  Any value produces the bit-identical \
                 simulation; N > 1 only changes wall-clock time.")
  in
  let cluster_faults =
    Arg.(value & opt string "none" & info [ "cluster-faults" ] ~docv:"SPEC"
           ~doc:"Cluster fault scenario: semicolon-separated events, each \
                 kind:member:start_us:dur_us[:param] with kinds link_drop, \
                 link_corrupt, link_stall, crash, route_churn (param = \
                 route updates per simulated second against the member's \
                 live table) — e.g. \
                 'link_drop:1:200:600:0.5;crash:3:500:400' (see \
                 lib/fault/cluster_scenario.mli).  Seeded from --seed, so \
                 a failing run replays exactly.")
  in
  let fabric_queue_arg =
    Arg.(value & opt string "none" & info [ "fabric-queue" ] ~docv:"SPEC"
           ~doc:"Finite queue on every uplink and switch egress port: \
                 none | taildrop:CAP | red:CAP:MIN:MAX:MAXP[:WQ] | \
                 prio:CAP:CLASSES | wrr:CAP:W0,W1,... with an optional \
                 @MBPS drain-rate suffix (default 1000), e.g. \
                 'red:32:4:16:0.2@300' (see lib/cluster/fabric_queue.mli). \
                 Queues exert backpressure into injection and the member \
                 egress path; 'none' bypasses queueing entirely.")
  in
  let run duration seed members ports_per_member frame_len domains
      cluster_faults fabric_queue metrics =
    let faults =
      match Fault.Cluster_scenario.parse cluster_faults with
      | Ok s -> Fault.Cluster_scenario.with_seed s (Int64.of_int seed)
      | Error msg ->
          Format.eprintf "bad --cluster-faults spec: %s@." msg;
          exit 2
    in
    let fabric_queue =
      match Cluster.Fabric_queue.parse fabric_queue with
      | Ok q -> q
      | Error msg ->
          Format.eprintf "bad --fabric-queue spec: %s@." msg;
          exit 2
    in
    let c =
      Cluster.create ~members ~ports_per_member ~domains ~faults ~fabric_queue
        ()
    in
    let n_global = members * ports_per_member in
    let rng = Sim.Rng.create (Int64.of_int seed) in
    for g = 0 to n_global - 1 do
      let rng = Sim.Rng.split rng in
      let gen = Workload.Mix.udp_uniform ~rng ~n_subnets:n_global ~frame_len () in
      ignore
        (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
           ~name:(Printf.sprintf "gen%d" g)
           ~mbps:100. ~frame_len ~gen
           ~offer:(fun f -> Cluster.inject c ~global_port:g f)
           ())
    done;
    (* Several barriers, so windowed damage is audited while in force,
       not only after everything has settled. *)
    let slices = 6 in
    for _ = 1 to slices do
      Cluster.run_for c ~us:(duration *. 1000. /. float_of_int slices)
    done;
    let fc = Cluster.fabric_counts c in
    Format.printf
      "cluster after %.3f ms: %d members, %d delivered externally@,"
      (Sim.Engine.seconds (Cluster.time c) *. 1e3)
      members (Cluster.delivered_total c);
    Format.printf
      "fabric: %d offered = %d delivered + %d link + %d down + %d unknown + \
       %d queue + %d refused + %d in flight + %d queued (%d corrupted, %d \
       stalled)@."
      fc.Cluster.offered fc.Cluster.delivered fc.Cluster.dropped_link
      fc.Cluster.dropped_down fc.Cluster.dropped_unknown
      fc.Cluster.dropped_queue fc.Cluster.rx_refused fc.Cluster.in_flight
      fc.Cluster.queued fc.Cluster.corrupted fc.Cluster.stalled;
    if not (Cluster.Fabric_queue.is_bypass fabric_queue) then
      Format.printf "fabric queue [%s]: %d refused by backpressure@."
        (Cluster.Fabric_queue.to_spec fabric_queue)
        fc.Cluster.bp_refused;
    for m = 0 to members - 1 do
      Format.printf "member %d: %s, %d crash epoch(s)%s@." m
        (if Cluster.member_up c m then "up" else "down")
        (Cluster.crash_epochs c m)
        (match Cluster.recovery_latency_us c m with
        | None -> ""
        | Some l -> Printf.sprintf ", recovered in %.1f us" l)
    done;
    dump_metrics metrics (Cluster.telemetry_snapshot c);
    let violations = Cluster.violations c in
    if violations <> [] then begin
      List.iter
        (fun (src, v) ->
          Format.eprintf "FAULT [%s] %s: %s (at %.3f us)@." src
            v.Fault.Invariant.name v.Fault.Invariant.detail
            (Sim.Engine.seconds v.Fault.Invariant.at *. 1e6))
        violations;
      Format.eprintf
        "repro: router_cli cluster --cluster-faults '%s' --fabric-queue '%s' \
         --seed %d -d %g --members %d --ports-per-member %d --domains %d@."
        (Fault.Cluster_scenario.to_spec faults)
        (Cluster.Fabric_queue.to_spec fabric_queue)
        seed duration members ports_per_member domains;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Drive the section 6 multi-member cluster, optionally under a \
          cluster fault scenario, and audit the cluster invariants.")
    Term.(
      const run $ duration $ seed $ members $ ports_per_member $ frame_len
      $ domains $ cluster_faults $ fabric_queue_arg $ metrics_arg)

let () =
  let info =
    Cmd.info "router_cli" ~version:"1.0"
      ~doc:
        "Simulated IXP1200 software router (Spalink et al., SOSP 2001 \
         reproduction)."
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; peak_cmd; budget_cmd; cluster_cmd ]))
