(* The router CLI's number grammar: every out-of-range value is a usage
   error (Cmdliner's exit 124) naming the option, never an exception out
   of the simulation (exit 125) and never a silent run.  None of these
   invocations gets as far as starting a domain. *)

(* Next to this test binary's directory, wherever it is run from. *)
let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/router_cli.exe"

let run_cli args =
  let err = Filename.temp_file "router_cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err)
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, msg)

(* Cmdliner's usage error: "router_cli: option '--frame': ...". *)
let names_option opt msg =
  String.starts_with ~prefix:("router_cli: option '" ^ opt ^ "'") msg

let usage_error opt argv =
  let code, msg = run_cli argv in
  let what = String.concat " " argv in
  Alcotest.(check int) (what ^ ": exit 124") 124 code;
  Alcotest.(check bool) (what ^ ": names the option") true
    (names_option opt msg)

let out_of_range_is_usage_error () =
  List.iter
    (fun (cmd, opt, value) -> usage_error opt [ cmd; opt; value; "-d"; "0.01" ])
    [
      ("run", "--frame", "0");
      ("run", "--frame", "20000");
      ("run", "--mbps", "0");
      ("run", "--mbps", "nan");
      ("run", "--exceptional", "2");
      ("cluster", "--frame", "0");
      ("cluster", "--members", "0");
      ("cluster", "--members", "1");
      ("cluster", "--domains", "0");
    ];
  List.iter
    (fun opt -> usage_error opt [ "peak"; opt; "0" ])
    [ "--input-contexts"; "--output-contexts" ];
  (* No extra "-d" here: these commands have none, or the value under
     test is the duration itself. *)
  List.iter
    (fun argv -> usage_error (List.nth argv 1) argv)
    [
      [ "run"; "--duration"; "0" ];
      [ "run"; "--duration"; "nan" ];
      [ "cluster"; "--duration"; "0" ];
      [ "cluster"; "--ports-per-member"; "0"; "-d"; "0.01" ];
      (* 4 x 65 external ports need more than the 256 global subnets. *)
      [ "cluster"; "--ports-per-member"; "65"; "--members"; "4"; "-d"; "0.01" ];
      [ "budget"; "--pps"; "0" ];
      [ "budget"; "--pps"; "inf" ];
      [ "budget"; "--contexts"; "0" ];
      [ "peak"; "--vrp-blocks"; "1000" ];
    ];
  (* A negative value must be glued on, or it reads as an option. *)
  usage_error "--duration" [ "cluster"; "--duration=-1" ];
  usage_error "--vrp-blocks" [ "peak"; "--vrp-blocks=-1" ]

let in_range_runs () =
  let code, _ =
    run_cli [ "run"; "--frame"; "1518"; "--exceptional"; "1"; "-d"; "0.05" ]
  in
  Alcotest.(check int) "run at the range's ends: exit 0" 0 code

let tests =
  [
    Alcotest.test_case "out-of-range numbers are usage errors" `Quick
      out_of_range_is_usage_error;
    Alcotest.test_case "in-range numbers run" `Quick in_range_runs;
  ]
