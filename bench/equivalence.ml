(* The equivalence harness: every delivery-schedule comparison the
   repository gates, as one list of arms.

   The per-port delivery digest is the oracle for the paper's robustness
   claim.  The same offered traffic must leave the 4-member cluster in
   the same schedule — same packets, ports, order and departure times —
   whatever the batch coalescing, the number of OCaml domains, the
   fabric queue or the classifier.

   An arm is one cluster run.  Its reference runs the same scenario,
   seeds, batch capacity, traffic and fabric queue at one domain with
   coalescing on.  Batch capacity stays part of the group because batch
   1 and batch 16 legitimately schedule differently.  Every arm must
   match its reference's delivered count and per-port delivery digests;
   an arm that differs from it in [domains] alone must also match every
   member's telemetry MD5.

   Each group carries one negative control: its reference with another
   traffic seed, which must NOT match.  An oracle that cannot tell two
   different runs apart proves nothing.

   Reference arms of line-rate traffic also carry the cluster fault
   matrix's checks.  They run three barriers more, six in all, so damage
   windows are audited while in force and after they end.  The cluster
   and member invariants are audited at every barrier, a scenario that
   shows no fault effect (or a baseline that shows one) is a failure,
   and a violation prints its router_cli repro line.

   Everything here is simulated time and therefore deterministic: CI
   gates every row both ways against BENCH_equivalence.json, and
   [failures] makes the harness exit nonzero after the JSON evidence is
   written. *)

let failures = ref 0

let members = 4
let ports_per_member = 4

(* One line-rate source per global port in [ports] (default: every port
   of the 4x4 cluster), each on its own split of [seed]'s stream.
   [gen ~rng g] builds port [g]'s frames; the default is uniform 64-byte
   UDP over the ports' subnets, drawn from the member's frame pool when
   it has one.  A refused pooled frame goes back to its pool. *)
let spawn_line_rate ?(mbps = 100.)
    ?(ports = List.init (members * ports_per_member) Fun.id) ?gen c ~seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  List.iter
    (fun g ->
      let pool =
        Cluster.frame_pool c (fst (Cluster.member_of_global_port c g))
      in
      let rng = Sim.Rng.split rng in
      let gen =
        match gen with
        | Some gen -> gen ~rng g
        | None ->
            Workload.Mix.udp_uniform ?pool ~rng
              ~n_subnets:(List.length ports) ~frame_len:64 ()
      in
      ignore
        (Workload.Source.spawn_line_rate (Cluster.engine_of_global_port c g)
           ~name:(Printf.sprintf "gen%d" g)
           ~mbps ~frame_len:64 ~gen
           ~offer:(fun f ->
             let ok = Cluster.inject c ~global_port:g f in
             (match pool with
             | Some p when not ok -> Packet.Frame_pool.give p f
             | _ -> ());
             ok)
           ()))
    ports

type traffic = Line_rate | Classified

type arm = {
  spec : string;  (** cluster fault scenario *)
  seed : int;  (** fault seed, and the classifier's rule seed *)
  traffic_seed : int;  (** equal to [seed] except on negative controls *)
  batch_mps : int;
  domains : int;
  coalesce : bool;
  traffic : traffic;
  queue : string option;  (** fabric queue spec; [None] bypasses *)
}

let arm ?(batch_mps = 16) ?(domains = 1) ?(coalesce = true)
    ?(traffic = Line_rate) ?queue spec seed =
  {
    spec;
    seed;
    traffic_seed = seed;
    batch_mps;
    domains;
    coalesce;
    traffic;
    queue;
  }

let reference a =
  { a with domains = 1; coalesce = true; traffic_seed = a.seed }

let control a = { (reference a) with traffic_seed = a.seed + 1 }
let is_control a = a.traffic_seed <> a.seed

let label a =
  Printf.sprintf "%s seed=%d%s batch=%d domains=%d%s%s%s" a.spec a.seed
    (if is_control a then Printf.sprintf " traffic_seed=%d" a.traffic_seed
     else "")
    a.batch_mps a.domains
    (if a.coalesce then "" else " granular")
    (match a.traffic with Classified -> " classified" | Line_rate -> "")
    (match a.queue with Some q -> " queue=" ^ q | None -> "")

let ( let* ) xs f = List.concat_map f xs
let matrix = List.map fst Fault.Cluster_scenario.matrix
let chaser = "link_stall:1:200:500:40;link_drop:1:700:600:0.6"

(* The comparisons, one block per question asked of the oracle. *)
let compared =
  List.concat
    [
      (* Batched vs event-granular: coalescing on and off. *)
      (let* spec = matrix in
       let* batch_mps = [ 1; 16 ] in
       let* domains = [ 1; 2 ] in
       let* coalesce = [ true; false ] in
       [ arm ~batch_mps ~domains ~coalesce spec 11 ]);
      (* Parallel vs sequential. *)
      (let* spec = matrix in
       let* seed = [ 11; 42 ] in
       let* domains = [ 1; 2; 4 ] in
       [ arm ~domains spec seed ]);
      (* Classified flows over 256 rules. *)
      (let* batch_mps = [ 1; 16 ] in
       let* domains = [ 1; 2 ] in
       let* coalesce = [ true; false ] in
       [
         arm ~traffic:Classified ~batch_mps ~domains ~coalesce "none" 90210;
       ]);
      (* The congestion chaser through queued fabric hops. *)
      (let* domains = [ 1; 2; 4 ] in
       [ arm ~queue:"red:24:6:18:0.5@300" ~domains chaser 11 ]);
    ]

let dedupe arms =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun a ->
      let fresh = not (Hashtbl.mem seen a) in
      Hashtbl.replace seen a ();
      fresh)
    arms

let arms = dedupe (compared @ List.map control compared)

let audited a = a.traffic = Line_rate && a = reference a

(* --- one arm ----------------------------------------------------------- *)

type outcome = {
  delivered : int;
  digests : string list;  (** per-port delivery digests, member order *)
  md5s : string list;  (** per-member telemetry MD5 *)
}

let install_classifier (r : Router.t) ~seed =
  let open Forwarders in
  let cls = Classifier.create () in
  List.iter (Classifier.add cls)
    (Classifier.Gen.rules
       ~rng:(Sim.Rng.create (Int64.of_int seed))
       ~n:256 ~n_ports:ports_per_member ());
  match
    Router.Iface.install r.Router.iface ~key:Packet.Flow.All
      ~fwdr:(Classifier.forwarder ~cm:r.Router.config.Router.cm cls)
      ~where:Router.Iface.ME ()
  with
  | Ok _ -> ()
  | Error es -> failwith ("equivalence: install: " ^ String.concat "; " es)

let spawn_flows c ~seed =
  let n_global = members * ports_per_member in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for g = 0 to n_global - 1 do
    let pool =
      Option.get
        (Cluster.frame_pool c (fst (Cluster.member_of_global_port c g)))
    in
    let fl =
      Workload.Flows.create ~pool ~rng:(Sim.Rng.split rng)
        {
          Workload.Flows.default with
          pps = 130_000.;
          n_hosts = 65_536;
          n_subnets = n_global;
        }
    in
    ignore
      (Workload.Flows.spawn fl
         (Cluster.engine_of_global_port c g)
         ~name:(Printf.sprintf "gen%d" g)
         ~offer:(fun f ->
           let ok = Cluster.inject c ~global_port:g f in
           if not ok then Packet.Frame_pool.give pool f;
           ok))
  done

let parse what parse spec =
  match parse spec with
  | Ok v -> v
  | Error msg ->
      failwith (Printf.sprintf "equivalence: bad %s %s: %s" what spec msg)

(* The fault matrix's checks on an audited reference arm, after its six
   barriers: whether the scenario showed no effect, whether a baseline
   showed one, and the invariant audit as evidence. *)
let fault_checks c a =
  let fc = Cluster.fabric_counts c in
  let epochs = List.init members (Cluster.crash_epochs c) in
  let churn = Cluster.route_churn_writes c in
  let crash_epochs = List.fold_left ( + ) 0 epochs in
  Report.info
    "%-60s %4d ext, fabric %4d/%4d, drops link/down/unk %d/%d/%d, %d \
     corrupted, %d stalled, %d epoch(s), %d churn write(s)"
    (label a) (Cluster.delivered_total c) fc.Cluster.delivered
    fc.Cluster.offered fc.Cluster.dropped_link fc.Cluster.dropped_down
    fc.Cluster.dropped_unknown fc.Cluster.corrupted fc.Cluster.stalled
    crash_epochs churn;
  let effects =
    fc.Cluster.dropped_link + fc.Cluster.dropped_down + fc.Cluster.corrupted
    + fc.Cluster.stalled + crash_epochs + churn
  in
  (* A scenario with no observable effect proves nothing: an unwired
     fault path cannot pass. *)
  let inert = a.spec <> "none" && effects = 0 in
  let noisy = a.spec = "none" && effects > 0 in
  if inert then Report.info "  FAILURE: scenario injected nothing";
  if noisy then Report.info "  FAILURE: baseline shows fault effects";
  (inert, noisy, Fault.Invariant.to_json c.Cluster.invariants)

let slice_us a = match a.traffic with Line_rate -> 500. | Classified -> 400.

(* Run one arm: three barriers, the outcome, and for an audited arm
   three barriers more and the fault-matrix checks.  Every violation is
   a failure, printed with the arm and (for line-rate traffic) the
   router_cli repro line. *)
let run_arm a =
  let faults =
    Fault.Cluster_scenario.with_seed
      (parse "scenario" Fault.Cluster_scenario.parse a.spec)
      (Int64.of_int a.seed)
  in
  let fabric_queue =
    Option.map (parse "queue spec" Cluster.Fabric_queue.parse) a.queue
  in
  let config =
    { Router.default_config with Router.batch_mps = a.batch_mps }
  in
  let c =
    Cluster.create ~members ~ports_per_member ~domains:a.domains ~config
      ~faults ~frame_pool:true ?fabric_queue ()
  in
  Array.iter Router.enable_delivery_digest c.Cluster.members;
  if not a.coalesce then
    Array.iter (fun e -> Sim.Engine.set_coalescing e false) c.Cluster.engines;
  (match a.traffic with
  | Line_rate -> spawn_line_rate c ~seed:a.traffic_seed
  | Classified ->
      Array.iter (install_classifier ~seed:a.seed) c.Cluster.members;
      spawn_flows c ~seed:a.traffic_seed);
  let slices n =
    for _ = 1 to n do
      Cluster.run_for c ~us:(slice_us a)
    done
  in
  slices 3;
  let outcome =
    {
      delivered = Cluster.delivered_total c;
      digests =
        List.concat_map
          (fun m -> Array.to_list (Router.port_delivery_digests m))
          (Array.to_list c.Cluster.members);
      md5s = List.init members (Cluster.member_metrics_md5 c);
    }
  in
  let audit =
    if audited a then begin
      slices 3;
      Some (fault_checks c a)
    end
    else None
  in
  let violations = Cluster.violations c in
  if violations <> [] then begin
    List.iter
      (fun (src, (v : Fault.Invariant.violation)) ->
        Report.info "  VIOLATION [%s] [%s @ %Ld] %s: %s" (label a) src
          v.Fault.Invariant.at v.Fault.Invariant.name v.Fault.Invariant.detail)
      violations;
    if a.traffic = Line_rate then
      Report.info
        "  repro: router_cli cluster --cluster-faults '%s' --seed %d -d %g \
         --members %d --ports-per-member %d --domains %d%s"
        a.spec a.seed
        ((if audit = None then 3. else 6.) *. slice_us a /. 1000.)
        members ports_per_member a.domains
        (match a.queue with
        | Some q -> " --fabric-queue '" ^ q ^ "'"
        | None -> "")
  end;
  (outcome, List.length violations, audit)

(* --- the sweep --------------------------------------------------------- *)

(* The gated mismatch row a comparison counts towards. *)
let row_of a =
  if is_control a then "negative controls matched"
  else
    match (a.traffic, a.queue) with
    | Classified, _ -> "classified identity mismatches"
    | Line_rate, Some _ -> "queued parallel identity mismatches"
    | Line_rate, None when a.coalesce ->
        "parallel vs sequential digest mismatches"
    | Line_rate, None -> "delivery-schedule mismatches"

let run () =
  Report.section
    "Equivalence: delivery schedules across batching, coalescing, domains, \
     queued fabrics and classification, under the cluster fault matrix";
  let runs = List.map (fun a -> (a, run_arm a)) arms in
  let outcome a =
    let o, _, _ = List.assoc a runs in
    o
  in
  let checked =
    List.filter_map
      (fun a ->
        let r = reference a in
        if a = r then None
        else
          let o = outcome a and ro = outcome r in
          (* A control must tell its digests apart from the reference's;
             an arm that differs from it in [domains] alone must also
             match its telemetry. *)
          let ok =
            if is_control a then o.digests <> ro.digests
            else
              o.delivered = ro.delivered && o.digests = ro.digests
              && ((not a.coalesce) || o.md5s = ro.md5s)
          in
          if not ok then
            Report.info "  FAILURE [%s vs %s]: %s" (label a) (label r)
              (if is_control a then
                 "a different traffic seed gave the same schedule"
               else "schedules or telemetry diverge");
          Some (a, ok))
      arms
  in
  let audits =
    List.filter_map
      (fun (a, (_, _, audit)) -> Option.map (fun x -> (a, x)) audit)
      runs
  in
  (* Arm counts are gated against the baseline, so an arm cannot drop
     out of the list unnoticed. *)
  let count name n =
    Report.row ~unit_:"arms" ~name ~paper:(float_of_int n)
      ~measured:(float_of_int n)
  in
  count "comparisons" (List.length checked);
  count "fault audits" (List.length audits);
  List.iter
    (fun a ->
      if a.traffic = Classified && a.coalesce && not (is_control a) then
        Report.row ~unit_:"frames"
          ~name:
            (Printf.sprintf "classified delivered [batch=%d domains=%d]"
               a.batch_mps a.domains)
          ~paper:1_000.
          ~measured:(float_of_int (outcome a).delivered))
    arms;
  let tally f = List.fold_left (fun n x -> n + f x) 0 in
  let failed name n =
    failures := !failures + n;
    Report.row ~unit_:"count" ~name ~paper:0. ~measured:(float_of_int n)
  in
  List.iter
    (fun row ->
      failed row
        (tally (fun (a, ok) -> Bool.to_int (row_of a = row && not ok)) checked))
    (List.sort_uniq compare (List.map (fun (a, _) -> row_of a) checked));
  failed "invariant violations" (tally (fun (_, (_, n, _)) -> n) runs);
  failed "scenarios that injected nothing"
    (tally (fun (_, (inert, _, _)) -> Bool.to_int inert) audits);
  failed "baselines with fault effects"
    (tally (fun (_, (_, noisy, _)) -> Bool.to_int noisy) audits);
  Report.attach "equivalence"
    (Telemetry.Json.Obj
       [
         ( "comparisons",
           Telemetry.Json.Obj
             (List.map
                (fun (a, ok) -> (label a, Telemetry.Json.Bool ok))
                checked) );
         ( "audits",
           Telemetry.Json.Obj
             (List.map (fun (a, (_, _, json)) -> (label a, json)) audits) );
       ])
