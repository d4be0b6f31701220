(* Smoke test for the benchmark, run by `dune runtest`: every workload at
   its tiny size (2 ms windows, 10k routes, 1k rules), untraced twice and
   traced once.  It asserts that

   - every metric BENCHMARK.json names is printed, finite, with its unit;
   - the ledger rows plus the residual equal the traced total;
   - two same-seed runs print identical deterministic metrics and
     delivery digests, and the traced run's digest matches them;
   - an unknown workload is refused before anything runs. *)

module J = Telemetry.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      print_endline ("FAIL " ^ s))
    fmt

let run args =
  let ic = Unix.open_process_args_in "./main.exe" (Array.of_list ("./main.exe" :: args)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, List.rev !lines)

let member k j = match J.member k j with Some v -> v | None -> failwith ("missing " ^ k)

let list = function J.List l -> l | _ -> failwith "expected a list"
let string = function J.String s -> s | _ -> failwith "expected a string"

(* (name, unit) of each metric in a BENCHMARK.json section. *)
let section bench key =
  List.map
    (fun m -> (string (member "name" m), string (member "unit" m)))
    (list (member key bench))

let prefixed p l =
  List.filter_map
    (fun s ->
      let n = String.length p in
      if String.length s > n && String.sub s 0 n = p then
        Some (String.sub s n (String.length s - n))
      else None)
    l

let result lines =
  match List.rev lines with
  | last :: _ -> (
      match J.of_string last with Ok j -> j | Error e -> failwith ("result: " ^ e))
  | [] -> failwith "no output"

let value metrics name =
  match J.member name metrics with
  | Some m -> (
      match J.to_float (member "value" m) with
      | Some v -> Some (v, string (member "unit" m))
      | None -> None)
  | None -> None

let check_metrics w res expected =
  let metrics = member "metrics" res in
  List.iter
    (fun (name, unit_) ->
      match value metrics name with
      | None -> fail "%s: metric %s missing" w name
      | Some (v, u) ->
          if not (Float.is_finite v) then fail "%s: %s is not finite" w name;
          if u <> unit_ then fail "%s: %s has unit %s, expected %s" w name u unit_)
    expected;
  metrics

let ok_run w args =
  let status, lines = run args in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
      List.iter print_endline lines;
      fail "%s: %s exited abnormally" w (String.concat " " args));
  let res = result lines in
  if J.member "correct" res <> Some (J.Bool true) then fail "%s: not correct" w;
  (res, lines)

let deterministic = [ "sim_lat_p50_us"; "sim_lat_p99_us"; "delivered_frac" ]

let () =
  let bench =
    let ic = open_in_bin "../BENCHMARK.json" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string s with Ok j -> j | Error e -> failwith e
  in
  let e2e = section bench "end_to_end" and layers = section bench "per_layer" in
  let workloads =
    List.map (fun w -> string (member "name" w)) (list (member "workloads" bench))
  in
  List.iter
    (fun w ->
      let failed_before = !failures in
      let args trace =
        [ "--workload"; w; "--seed"; "42"; "--tiny"; "--trace"; trace ]
      in
      let r1, l1 = ok_run w (args "0") in
      let r2, l2 = ok_run w (args "0") in
      let m1 = check_metrics w r1 e2e and m2 = check_metrics w r2 e2e in
      List.iter
        (fun k ->
          if value m1 k <> value m2 k then fail "%s: %s differs between replays" w k)
        deterministic;
      List.iter
        (fun k ->
          if J.member k r1 <> J.member k r2 then fail "%s: %s differs between replays" w k)
        [ "attempted"; "failed" ];
      let digest = prefixed ("digest " ^ w ^ " ") in
      if digest l1 = [] || digest l1 <> digest l2 then
        fail "%s: delivery digests differ between replays" w;
      let spans = "spans_" ^ w ^ ".txt" in
      let rt, lt = ok_run w (args "1" @ [ "--spans"; spans ]) in
      ignore (check_metrics w rt layers : J.t);
      if digest lt <> digest l1 then fail "%s: the traced digest differs" w;
      (* From the printed metric lines, which also carry the rows the
         result line leaves out. *)
      let get k =
        List.fold_left
          (fun acc l ->
            match String.split_on_char ' ' l |> List.filter (( <> ) "") with
            | [ w'; k'; v; _ ] when w' = w && k' = k -> float_of_string v
            | _ -> acc)
          nan lt
      in
      let parts =
        [
          "engine.ns_per_pkt";
          "workload.gen_ns_per_pkt";
          "mac_port.inject_ns_per_pkt";
          "process.ns_per_pkt";
          "ledger.residual_ns_per_pkt";
        ]
      in
      let sum = List.fold_left (fun a k -> a +. get k) 0. parts in
      let total = get "ledger.total_ns_per_pkt" in
      if Float.abs (sum -. total) > 1e-6 *. Float.abs total then
        fail "%s: ledger rows sum to %g, the traced total is %g" w sum total;
      if not (List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "ledger ") lt)
      then fail "%s: no ledger printed" w;
      let ic = open_in spans in
      let header = try input_line ic with End_of_file -> "" in
      close_in ic;
      Sys.remove spans;
      if header <> "layer packet_id start_ns end_ns" then
        fail "%s: spans file has header %S" w header;
      if !failures = failed_before then Printf.printf "ok %s\n%!" w)
    workloads;
  (match run [ "--workload"; "nosuch" ] with
  | Unix.WEXITED 2, _ -> ()
  | _ -> fail "an unknown workload was not refused with exit code 2");
  if !failures > 0 then exit 1
