type 'a client = {
  name : string;
  share : float;
  mutable pass : float;
  mutable served : int;
  mutable work : float;
  queue : 'a Queue.t;
}

type 'a t = { mutable clients : 'a client list; mutable backlog : int }

let create () = { clients = []; backlog = 0 }

let add_client t ~name ~share =
  if share <= 0. then invalid_arg "Psched.add_client: share <= 0";
  (* A new client starts at the current minimum pass so it cannot claim a
     catch-up burst. *)
  let base =
    List.fold_left (fun acc c -> Float.min acc c.pass) infinity t.clients
  in
  let pass = if Float.is_finite base then base else 0. in
  let c = { name; share; pass; served = 0; work = 0.; queue = Queue.create () } in
  t.clients <- c :: t.clients;
  c

let remove_client t c =
  t.backlog <- t.backlog - Queue.length c.queue;
  t.clients <- List.filter (fun x -> x != c) t.clients

let enqueue t c v =
  Queue.push v c.queue;
  t.backlog <- t.backlog + 1

let next t =
  let best =
    List.fold_left
      (fun acc c ->
        if Queue.is_empty c.queue then acc
        else
          match acc with
          | Some b when b.pass <= c.pass -> acc
          | _ -> Some c)
      None t.clients
  in
  match best with
  | None -> None
  | Some c ->
      let v = Queue.pop c.queue in
      t.backlog <- t.backlog - 1;
      c.served <- c.served + 1;
      Some (c, v)

let charge t c work =
  ignore t;
  c.work <- c.work +. work;
  c.pass <- c.pass +. (work /. c.share)

let backlog t = t.backlog
let client_name c = c.name
let served c = c.served

let register_telemetry scope t =
  Telemetry.Scope.gauge_int scope "backlog" (fun () -> t.backlog);
  (* Clients come and go (flows install and uninstall), so the table is
     walked at snapshot time rather than registered per client. *)
  Telemetry.Scope.dynamic scope "clients" (fun () ->
      let open Telemetry.Json in
      let client c =
        Obj
          [
            ("name", String c.name);
            ("share", Float c.share);
            ("served", Int c.served);
            ("work", Float c.work);
            ("queued", Int (Queue.length c.queue));
          ]
      in
      List
        (List.map client
           (List.sort (fun a b -> compare a.name b.name) t.clients)))
