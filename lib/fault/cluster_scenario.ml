type kind = Link_drop | Link_corrupt | Link_stall | Crash | Route_churn

type event = {
  kind : kind;
  member : int;
  start_us : float;
  dur_us : float;
  param : float;
}

type t = { seed : int64; events : event list }

let zero = { seed = 0L; events = [] }
let is_zero t = t.events = []
let with_seed t seed = { t with seed }

let kind_name = function
  | Link_drop -> "link_drop"
  | Link_corrupt -> "link_corrupt"
  | Link_stall -> "link_stall"
  | Crash -> "crash"
  | Route_churn -> "route_churn"

let kind_of_name = function
  | "link_drop" -> Some Link_drop
  | "link_corrupt" -> Some Link_corrupt
  | "link_stall" -> Some Link_stall
  | "crash" -> Some Crash
  | "route_churn" -> Some Route_churn
  | _ -> None

let default_param = function
  | Link_drop | Link_corrupt -> 1.0
  | Link_stall -> 50.
  | Crash -> 0.
  | Route_churn -> 1000. (* route updates per second of simulated time *)

let end_us e = if e.dur_us <= 0. then infinity else e.start_us +. e.dur_us
let active e ~at_us = at_us >= e.start_us && at_us < end_us e

let max_member t =
  List.fold_left (fun acc e -> max acc e.member) (-1) t.events

let rate t kind' ~member ~at_us =
  List.fold_left
    (fun acc e ->
      if e.kind = kind' && e.member = member && active e ~at_us then
        Float.max acc e.param
      else acc)
    0. t.events

let drop_rate t ~member ~at_us = rate t Link_drop ~member ~at_us
let corrupt_rate t ~member ~at_us = rate t Link_corrupt ~member ~at_us

let churn_events t ~member =
  List.filter (fun e -> e.kind = Route_churn && e.member = member) t.events

let stall_us t ~member ~at_us =
  List.fold_left
    (fun acc e ->
      if e.kind = Link_stall && e.member = member && active e ~at_us then
        acc +. e.param
      else acc)
    0. t.events

let crashed t ~member ~at_us =
  List.exists
    (fun e -> e.kind = Crash && e.member = member && active e ~at_us)
    t.events

let member_active t ~member ~at_us =
  List.exists (fun e -> e.member = member && active e ~at_us) t.events

let parse_event item =
  let ( let* ) = Result.bind in
  let fields = String.split_on_char ':' (String.trim item) in
  match fields with
  | kind_s :: member_s :: start_s :: dur_s :: rest ->
      let* kind =
        match kind_of_name (String.trim kind_s) with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "unknown event kind %S" kind_s)
      in
      let* member =
        match int_of_string_opt (String.trim member_s) with
        | Some m when m >= 0 -> Ok m
        | _ -> Error (Printf.sprintf "%s: bad member %S" kind_s member_s)
      in
      let num name s =
        match float_of_string_opt (String.trim s) with
        | Some v when v >= 0. && Float.is_finite v -> Ok v
        | _ ->
            Error
              (Printf.sprintf
                 "%s: %s must be a finite non-negative number, got %S" kind_s
                 name s)
      in
      let* start_us = num "start" start_s in
      let* dur_us = num "dur" dur_s in
      let* param =
        match rest with
        | [] -> Ok (default_param kind)
        | [ p ] -> (
            let* v = num "param" p in
            match kind with
            | Link_drop | Link_corrupt ->
                if v > 1. then
                  Error
                    (Printf.sprintf "%s: rate %g outside [0, 1]" kind_s v)
                else Ok v
            | Link_stall -> Ok v
            | Route_churn ->
                if v <= 0. then
                  Error
                    (Printf.sprintf
                       "route_churn: rate %g must be positive updates/s" v)
                else Ok v
            | Crash -> Error "crash: takes no parameter")
        | _ -> Error (Printf.sprintf "too many fields in %S" item)
      in
      Ok { kind; member; start_us; dur_us; param }
  | _ ->
      Error
        (Printf.sprintf
           "expected kind:member:start_us:dur_us[:param] in %S" item)

let parse spec =
  match String.trim spec with
  | "" | "none" -> Ok zero
  | spec ->
      Result.map
        (fun events -> { seed = 0L; events = List.rev events })
        (List.fold_left
           (fun acc item ->
             Result.bind acc (fun es ->
                 Result.map (fun e -> e :: es) (parse_event item)))
           (Ok [])
           (String.split_on_char ';' spec))

(* [%g] where it parses back exactly, else every digit: [to_spec] must
   round-trip. *)
let num v =
  let s = Printf.sprintf "%g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let event_to_spec e =
  let base =
    Printf.sprintf "%s:%d:%s:%s" (kind_name e.kind) e.member (num e.start_us)
      (num e.dur_us)
  in
  if e.param = default_param e.kind then base else base ^ ":" ^ num e.param

let to_spec t =
  match t.events with
  | [] -> "none"
  | es -> String.concat ";" (List.map event_to_spec es)

(* The canonical scenario matrix: one spec per damage kind plus a
   combined run, shared by the cluster fault-matrix bench, the
   parallel-vs-sequential identity sweep, and the test suite so they
   cannot drift apart. *)
let matrix =
  [
    ("none", "baseline, no faults");
    ("link_drop:1:300:900:0.5", "member 1 fabric link dropping half");
    ("link_corrupt:0:200:1200:0.3", "member 0 fabric link corrupting bytes");
    ("link_stall:2:200:1500:40", "member 2 fabric link +40 us stalls");
    ("crash:3:600:800", "member 3 fail-stop, rejoins at 1.4 ms");
    ("crash:2:800:0", "member 2 fail-stop, never restarts");
    ( "link_drop:0:200:700:0.4;link_stall:1:300:900:30;crash:3:500:600",
      "combined: drops + stalls + a crash" );
    ( "link_stall:1:200:500:40;link_drop:1:700:600:0.6",
      "member 1 uplink stalls, then drops — queue congestion chaser" );
    ( "route_churn:1:200:1200:20000;link_drop:1:400:600:0.5",
      "member 1 route churn while its uplink drops half" );
    ( "route_churn:2:100:1300:20000;crash:2:600:500",
      "member 2 churns its table, crashes mid-churn, rejoins" );
  ]
