(* The benchmark harness: one entry per table/figure of the paper's
   evaluation (see DESIGN.md's experiment index).  With no experiment
   names every reproduction runs in paper order; pass names to select, or
   "micro" for the Bechamel host-side microbenchmarks.  With [--json FILE]
   the run additionally writes one BENCH.json — paper/measured/ratio rows,
   figure series, and telemetry snapshots — which CI archives as the perf
   trajectory artifact. *)

let experiments =
  [
    ("table1", "Table 1: queueing discipline rates", Table1.run);
    ("table2", "Table 2: per-MP operation counts", Table2.run);
    ("table3", "Table 3: memory latencies", Table3.run);
    ("table4", "Table 4: Pentium path rates", Table4.run);
    ("table5", "Table 5: forwarder requirements", Table5.run);
    ("figure7", "Figure 7: rate vs contexts", Figure7.run);
    ("figure9", "Figure 9: VRP blocks vs line speed", Figure9.run);
    ("figure10", "Figure 10: contention reclaimed by VRP", Figure10.run);
    ("linerate", "Section 3.5.1: 8x100Mbps line rate", Linerate.run);
    ("strongarm", "Section 3.6: StrongARM rates", Strongarm_bench.run);
    ("dramdirect", "Section 3.5.1: DRAM-direct ablation", Dramdirect.run);
    ("budget", "Section 4.3: VRP budget derivation", Budget.run);
    ("framesize", "Section 3.5.1: frame-size / MP scaling", Framesize.run);
    ("bufferpool", "Section 3.2.3: circular vs stack buffers", Bufferpool.run);
    ("robust1", "Section 4.7: Pentium share under full VRP", Robust1.run);
    ("robust2", "Section 4.7: control-flood isolation", Robust2.run);
    ("mpls", "Extension: MPLS virtual-circuit fast path", Mpls_bench.run);
    ("routing", "Extension: route-update storms vs fast path", Routing_bench.run);
    ("wfq", "Extension: input-side WFQ approximation", Wfq_bench.run);
    ("cluster", "Extension: four-member cluster (section 6)", Cluster_bench.run);
    ("fault_matrix", "Extension: invariants under fault injection",
     Fault_matrix.run);
    ("fabric_contention",
     "Extension: fabric queue disciplines under offered-load sweeps",
     Fabric_contention.run);
    ("fib", "Extension: million-route compressed FIB under churn", Fib.run);
    ("classifier",
     "Extension: tuple-space multi-field classifier with flow cache",
     Classifier_bench.run);
    ("equivalence",
     "Extension: delivery-schedule identity across batching, domains, \
      queueing and classification, under the cluster fault matrix",
     Equivalence.run);
    ("perf", "Infrastructure: simulator packets-per-wall-second", Perf.run);
    ("alloc", "Infrastructure: steady-state allocation budget", Alloc.run);
    ("cluster_perf",
     "Infrastructure: domain-parallel cluster throughput",
     Cluster_perf.run);
  ]

let usage () =
  print_endline "usage: bench/main.exe [--json FILE] [experiment...]";
  print_endline "options:";
  print_endline
    "  --json FILE  also write a machine-readable BENCH.json of every row,";
  print_endline "               series, and telemetry snapshot";
  print_endline "experiments:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-10s %s\n" n d) experiments;
  print_endline "  micro      Bechamel microbenchmarks of host primitives"

let () =
  let rec parse args json names =
    match args with
    | [] -> (json, List.rev names)
    | "--json" :: file :: rest -> parse rest (Some file) names
    | [ "--json" ] ->
        prerr_endline "--json requires a file argument";
        usage ();
        exit 2
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | a :: rest -> parse rest json (a :: names)
  in
  let json, names = parse (List.tl (Array.to_list Sys.argv)) None [] in
  let find name = List.find_opt (fun (n, _, _) -> n = name) experiments in
  (* Resolve every name before running anything: an unknown experiment is
     a hard error (exit 2), so a typo in a CI smoke job fails the job
     instead of silently printing usage and succeeding. *)
  let unknown =
    List.filter (fun a -> a <> "micro" && find a = None) names
  in
  if unknown <> [] then begin
    List.iter (fun a -> Printf.eprintf "unknown experiment %S\n" a) unknown;
    usage ();
    exit 2
  end;
  let selected =
    match names with
    | [] ->
        Format.printf
          "Reproducing Spalink et al., 'Building a Robust Software-Based \
           Router Using Network Processors' (SOSP 2001)@.";
        experiments
    | names ->
        List.map
          (fun a ->
            match find a with
            | Some e -> e
            | None ->
                ("micro", "Bechamel microbenchmarks of host primitives",
                 Micro.run))
          names
  in
  List.iter
    (fun (name, title, run) ->
      Report.begin_experiment ~name ~title;
      run ())
    selected;
  (match json with
  | None -> ()
  | Some file ->
      Report.write_json file;
      Format.printf "@.wrote %s@." file);
  (* Harness failures gate CI, but only after the JSON artifact is
     written so the evidence is archived. *)
  let failed =
    List.filter
      (fun (_, n) -> !n > 0)
      [
        ("fault_matrix", Fault_matrix.failures);
        ("equivalence", Equivalence.failures);
        ("fabric_contention", Fabric_contention.failures);
        ("fib", Fib.failures);
        ("classifier", Classifier_bench.failures);
        ("alloc", Alloc.failures);
      ]
  in
  List.iter
    (fun (name, n) -> Printf.eprintf "%s: %d failure(s)\n" name !n)
    failed;
  if failed <> [] then exit 1
