type nhlfe =
  | Swap of { out_label : int; out_port : int }
  | Pop_and_forward of { out_port : int }
  | Pop_and_route

type stats = {
  swapped : Sim.Stats.Counter.t;
  pushed : Sim.Stats.Counter.t;
  popped : Sim.Stats.Counter.t;
  label_miss : Sim.Stats.Counter.t;
  ttl_expired : Sim.Stats.Counter.t;
}

(* The FTN is a longest-prefix-match table; reuse the binary trie. *)
type t = {
  ilm : (int, nhlfe) Hashtbl.t;
  mutable ftn : (int * int) Iproute.Btrie.t;
  stats : stats;
}

let create () =
  {
    ilm = Hashtbl.create 64;
    ftn = Iproute.Btrie.empty;
    stats =
      {
        swapped = Sim.Stats.Counter.create ();
        pushed = Sim.Stats.Counter.create ();
        popped = Sim.Stats.Counter.create ();
        label_miss = Sim.Stats.Counter.create ();
        ttl_expired = Sim.Stats.Counter.create ();
      };
  }

let stats t = t.stats

let add_ilm t ~label nhlfe = Hashtbl.replace t.ilm label nhlfe

let add_ftn t prefix ~push_label ~out_port =
  t.ftn <- Iproute.Btrie.add t.ftn prefix (push_label, out_port)

let lookup_ftn t addr = Option.map snd (Iproute.Btrie.lookup t.ftn addr)

(* Label lookup cost: one hardware hash of the label plus a 4-byte SRAM
   read of the NHLFE, and ~20 instructions — the virtual-circuit fast
   path. *)
let charge_label_lookup ctx =
  Router.Chip_ctx.exec ctx 20;
  Router.Chip_ctx.hash_charge ctx;
  Router.Chip_ctx.sram_read ctx ~bytes:4

let finish_labelled r ctx frame ~out_port =
  ignore ctx;
  Packet.Ethernet.set_dst frame (Packet.Ethernet.mac_of_port (100 + out_port));
  Packet.Ethernet.set_src frame (Packet.Ethernet.mac_of_port out_port);
  Router.Input_loop.To_queue
    {
      qid = out_port mod r.Router.config.Router.n_ports;
      out_port;
      fid = -1;
    }

let rec process t r ctx frame ~in_port =
  if Packet.Mpls.is_mpls frame then begin
    let e = Packet.Mpls.top frame in
    charge_label_lookup ctx;
    match Hashtbl.find_opt t.ilm e.Packet.Mpls.label with
    | None ->
        Sim.Stats.Counter.incr t.stats.label_miss;
        Router.Input_loop.Drop_it
    | Some _ when e.Packet.Mpls.ttl <= 1 ->
        Sim.Stats.Counter.incr t.stats.ttl_expired;
        Router.Input_loop.Drop_it
    | Some (Swap { out_label; out_port }) ->
        Router.Chip_ctx.exec ctx 6;
        Packet.Mpls.swap frame ~label:out_label;
        Sim.Stats.Counter.incr t.stats.swapped;
        finish_labelled r ctx frame ~out_port
    | Some (Pop_and_forward { out_port }) ->
        Router.Chip_ctx.exec ctx 8;
        ignore (Packet.Mpls.pop frame);
        Sim.Stats.Counter.incr t.stats.popped;
        finish_labelled r ctx frame ~out_port
    | Some Pop_and_route ->
        Router.Chip_ctx.exec ctx 8;
        ignore (Packet.Mpls.pop frame);
        Sim.Stats.Counter.incr t.stats.popped;
        if Packet.Mpls.is_mpls frame then
          (* Still labelled below: treat as a miss on the inner label. *)
          process_inner t r ctx frame ~in_port
        else Router.default_process r ctx frame ~in_port
  end
  else begin
    (* Unlabelled: ingress check against the FTN (charged like the trivial
       classifier: hash + cache-sized read), else plain IP. *)
    match
      if
        Packet.Ethernet.get_ethertype frame = Packet.Ethernet.ethertype_ipv4
        && Packet.Ipv4.valid frame
      then lookup_ftn t (Packet.Ipv4.get_dst frame)
      else None
    with
    | Some (push_label, out_port) ->
        charge_label_lookup ctx;
        Router.Chip_ctx.exec ctx 10;
        Packet.Mpls.push frame
          {
            Packet.Mpls.label = push_label;
            tc = 0;
            bos = true;
            ttl = Packet.Ipv4.get_ttl frame;
          };
        Sim.Stats.Counter.incr t.stats.pushed;
        finish_labelled r ctx frame ~out_port
    | None -> Router.default_process r ctx frame ~in_port
  end

and process_inner t r ctx frame ~in_port = process t r ctx frame ~in_port
