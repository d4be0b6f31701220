(* Smart packet dropping for layered video (paper section 4.4, after
   Dasen et al.): the data forwarder forwards low-frequency layers and
   drops high-frequency ones; the control forwarder watches the forwarded
   count, deduces the available rate, and moves the cutoff layer to match
   congestion.

   Here the flow crosses a congested port (all background traffic exits
   port 2 as well), the control forwarder lowers the cutoff until the
   video's share fits, and raises it again when congestion clears.

   Run with: dune exec examples/wavelet_video.exe *)

let addr = Packet.Ipv4.addr_of_string

let () =
  let r = Router.create () in
  for port = 0 to 7 do
    Router.add_route r
      (Iproute.Prefix.of_string (Printf.sprintf "10.%d.0.0/16" port))
      ~port
  done;
  let flow =
    {
      Packet.Flow.src_addr = addr "10.250.0.9";
      src_port = 9000;
      dst_addr = addr "10.2.0.50";
      dst_port = 9001;
    }
  in
  let fid =
    match
      Router.Iface.install r.Router.iface ~key:(Packet.Flow.Tuple flow)
        ~fwdr:Forwarders.Wavelet_dropper.forwarder ~where:Router.Iface.ME ()
    with
    | Ok fid -> fid
    | Error es -> failwith (String.concat "; " es)
  in
  (* Start permissive: all 8 layers pass.  The control side reads the
     current state first so updating the cutoff preserves the forwarded
     counter the data plane maintains. *)
  let set_cutoff c =
    let st =
      match Router.Iface.getdata r.Router.iface fid with
      | Some st -> st
      | None -> Bytes.make 8 '\000'
    in
    Forwarders.Wavelet_dropper.set_cutoff st c;
    match Router.Iface.setdata r.Router.iface fid st with
    | Ok () -> ()
    | Error e -> failwith e
  in
  set_cutoff 7;
  Router.start r;

  (* The control forwarder: compare the video's forwarded rate against the
     congested port's queue depth; deep queue -> drop a layer, empty queue
     -> restore one.  Crude AIMD, enough to show the split. *)
  let cutoff = ref 7 in
  let log = ref [] in
  Router.Pentium.spawn_control r.Router.pe r.Router.chip ~name:"video-rate"
    ~period_us:400. ~cycles:3000 (fun () ->
      let depth = Router.Squeue.length r.Router.out_queues.(2) in
      let old = !cutoff in
      if depth > 64 && !cutoff > 0 then decr cutoff
      else if depth < 8 && !cutoff < 7 then incr cutoff;
      if old <> !cutoff then begin
        set_cutoff !cutoff;
        log :=
          (Sim.Engine.seconds (Sim.Engine.time r.Router.engine) *. 1e3,
           !cutoff, depth)
          :: !log
      end;
      true);

  (* The video stream: 80 Kpps across 8 layers. *)
  ignore
    (Workload.Source.spawn_constant r.Router.engine ~name:"video" ~pps:80_000.
       ~gen:(Workload.Mix.layered_video ~flow ~layers:8 ())
       ~offer:(fun f -> Router.inject r ~port:0 f)
       ());
  (* Congestion: for the middle third of the run, a burst floods port 2. *)
  let engine = r.Router.engine in
  Sim.Engine.spawn engine "burst" (fun () ->
      Sim.Engine.wait_in engine 4_000_000_000;
      let gen = Workload.Mix.udp_fixed ~dst:(addr "10.2.0.200") () in
      let stop_at = 8_000_000_000 in
      let gap = Int64.to_int (Sim.Engine.of_seconds (1. /. 130_000.)) in
      let rec blast i =
        if Sim.Engine.clock_i engine < stop_at then begin
          ignore (Router.inject r ~port:1 (gen i));
          Sim.Engine.wait_in engine gap;
          blast (i + 1)
        end
      in
      blast 0);

  Router.run_for r ~us:12_000.;
  let st = Option.get (Router.Iface.getdata r.Router.iface fid) in
  Format.printf "cutoff trajectory (ms, cutoff, queue depth):@.";
  List.iter
    (fun (t, c, d) -> Format.printf "  %6.2f  layer<=%d  depth=%d@." t c d)
    (List.rev !log);
  Format.printf
    "video packets forwarded: %d; final cutoff: layer <= %d (started at 7)@."
    (Forwarders.Wavelet_dropper.forwarded st)
    (Forwarders.Wavelet_dropper.cutoff st);
  assert (List.length !log > 0)
