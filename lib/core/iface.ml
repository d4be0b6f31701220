type where = ME | SA | PE

type binding = {
  fid : int;
  key : Packet.Flow.t;
  fwdr : Forwarder.t;
  where : where;
  istore_handles : (Ixp.Istore.t * int) list;
  expected_pps : float;
}

type t = {
  adm : Admission.t;
  chip : Ixp.Chip.t;
  classifier : Classifier.t;
  istores : Ixp.Istore.t list;
  me_load : Admission.me_load;
  pe_load : Admission.pe_load;
  mutable sa_boot : Forwarder.t list;
  mutable bindings : binding list;
  mutable next_fid : int;
  mutable pe_add : (fid:int -> Classifier.entry -> unit) option;
  mutable pe_remove : (fid:int -> unit) option;
}

let create ~chip ~classifier ~input_mes () =
  {
    adm = Admission.default chip.Ixp.Chip.cfg;
    chip;
    classifier;
    istores = List.map (fun i -> chip.Ixp.Chip.istores.(i)) input_mes;
    me_load = Admission.empty_me_load ();
    pe_load = Admission.empty_pe_load ();
    sa_boot = [];
    bindings = [];
    next_fid = 1;
    pe_add = None;
    pe_remove = None;
  }

let register_sa_boot_forwarder t f = t.sa_boot <- f :: t.sa_boot

let set_pe_hooks t ~add ~remove =
  t.pe_add <- Some add;
  t.pe_remove <- Some remove

let level_of_where = function
  | ME -> Desc.Microengine
  | SA -> Desc.Strongarm
  | PE -> Desc.Pentium

let install_istore t (f : Forwarder.t) ~per_flow =
  let slots = Forwarder.istore_slots f in
  let region = if per_flow then Ixp.Istore.Per_flow else Ixp.Istore.General in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | st :: rest -> (
        match Ixp.Istore.install st region ~slots with
        | Ok h -> go ((st, h) :: acc) rest
        | Error e ->
            (* Roll back the stores already written. *)
            List.iter (fun (st', h') -> Ixp.Istore.remove st' h') acc;
            Error [ e ])
  in
  go [] t.istores

let bind t ~key ~fwdr ~where ~expected_pps =
  let per_flow = key <> Packet.Flow.All in
  let admit =
    match where with
    | ME -> (
        match Admission.admit_me t.adm t.me_load fwdr ~per_flow with
        | Error es -> Error es
        | Ok () -> (
            match install_istore t fwdr ~per_flow with
            | Error es ->
                Admission.release_me t.adm t.me_load fwdr ~per_flow;
                Error es
            | Ok handles -> Ok handles))
    | SA ->
        if
          List.exists
            (fun b -> b.Forwarder.name = fwdr.Forwarder.name)
            t.sa_boot
        then Ok []
        else
          Error
            [
              Printf.sprintf
                "StrongARM forwarders are bound at boot; %S is not in the \
                 boot set"
                fwdr.Forwarder.name;
            ]
    | PE ->
        if expected_pps <= 0. then
          Error [ "PE install requires expected_pps > 0" ]
        else
          Result.map
            (fun () -> [])
            (Admission.admit_pe t.adm t.pe_load ~expected_pps
               ~cycles_per_pkt:fwdr.Forwarder.host_cycles)
  in
  match admit with
  | Error es -> Error es
  | Ok istore_handles ->
      let fid = t.next_fid in
      t.next_fid <- fid + 1;
      let entry =
        {
          Classifier.fid;
          key;
          where = level_of_where where;
          fwdr;
          state = Bytes.make fwdr.Forwarder.state_bytes '\000';
          matches = 0;
        }
      in
      Classifier.add t.classifier entry;
      t.bindings <-
        { fid; key; fwdr; where; istore_handles; expected_pps } :: t.bindings;
      (match (where, t.pe_add) with
      | PE, Some add -> add ~fid entry
      | _ -> ());
      Ok fid

(* The classifier holds one forwarder per flow key, so a second binding
   on a bound key is refused before admission reserves anything for it. *)
let install t ~key ~fwdr ~where ?(expected_pps = 0.) () =
  match
    List.find_opt (fun b -> key <> Packet.Flow.All && b.key = key) t.bindings
  with
  | Some b ->
      Error
        [
          Printf.sprintf "flow key already bound to fid %d (%S)" b.fid
            b.fwdr.Forwarder.name;
        ]
  | None -> bind t ~key ~fwdr ~where ~expected_pps

let remove t fid =
  match List.find_opt (fun b -> b.fid = fid) t.bindings with
  | None -> Error (Printf.sprintf "unknown fid %d" fid)
  | Some b ->
      t.bindings <- List.filter (fun x -> x.fid <> fid) t.bindings;
      ignore (Classifier.remove t.classifier fid);
      let per_flow = b.key <> Packet.Flow.All in
      (match b.where with
      | ME ->
          List.iter (fun (st, h) -> Ixp.Istore.remove st h) b.istore_handles;
          Admission.release_me t.adm t.me_load b.fwdr ~per_flow;
          (* Per-flow forwarders run in parallel, so only the dearest
             still bound counts against the budget. *)
          if per_flow then
            t.me_load.Admission.parallel_max_cycles <-
              List.fold_left
                (fun m x ->
                  if x.where = ME && x.key <> Packet.Flow.All then
                    max m (Admission.me_cycles_required t.adm x.fwdr)
                  else m)
                0 t.bindings
      | SA -> ()
      | PE ->
          Admission.release_pe t.pe_load ~expected_pps:b.expected_pps
            ~cycles_per_pkt:b.fwdr.Forwarder.host_cycles;
          Option.iter (fun f -> f ~fid) t.pe_remove);
      Ok ()

let getdata t fid =
  Option.map
    (fun e -> Bytes.copy e.Classifier.state)
    (Classifier.find_fid t.classifier fid)

let setdata t fid data =
  match Classifier.find_fid t.classifier fid with
  | None -> Error (Printf.sprintf "unknown fid %d" fid)
  | Some e ->
      if Bytes.length data <> Bytes.length e.Classifier.state then
        Error "setdata: size mismatch"
      else begin
        Bytes.blit data 0 e.Classifier.state 0 (Bytes.length data);
        Ok ()
      end

let find t fid = Classifier.find_fid t.classifier fid

let installed t =
  List.map (fun b -> (b.fid, b.fwdr.Forwarder.name, b.where)) t.bindings

let me_load t = t.me_load
