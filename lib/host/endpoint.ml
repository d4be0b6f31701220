let mss = 512
let window_segments = 4
let iss = 1000 (* deterministic initial sequence number *)

type state = Syn_sent | Syn_rcvd | Established

type conn = {
  local_addr : Packet.Ipv4.addr;
  local_port : int;
  peer_addr : Packet.Ipv4.addr;
  peer_port : int;
  mutable state : state;
  mutable snd_una : int; (* oldest unacknowledged sequence number *)
  mutable snd_nxt : int;
  mutable rcv_nxt : int;
  send_buf : Buffer.t; (* bytes numbered from iss+1 *)
  recv_buf : Buffer.t;
  ooo : (int, string) Hashtbl.t; (* out-of-order segments by seq *)
  mutable retx : int;
  mutable last_progress : int64; (* retransmission timer base *)
  send_frame : Packet.Frame.t -> bool;
}

type key = int * Packet.Ipv4.addr * int (* local port, peer addr, peer port *)

type t = {
  engine : Sim.Engine.t;
  addr : Packet.Ipv4.addr;
  send : Packet.Frame.t -> bool;
  conns : (key, conn) Hashtbl.t;
  listeners : (int, conn list ref) Hashtbl.t;
}

let seg conn ?(flags = Packet.Tcp.flag_ack) ?(payload = "") () =
  let frame_len = max 64 (54 + String.length payload) in
  Packet.Build.tcp ~frame_len ~src:conn.local_addr ~dst:conn.peer_addr
    ~src_port:conn.local_port ~dst_port:conn.peer_port
    ~seq:(Int32.of_int (conn.snd_nxt land 0x7FFFFFFF))
    ~ack:(Int32.of_int (conn.rcv_nxt land 0x7FFFFFFF))
    ~flags ~payload ()

let seg_at conn ~seq ~payload =
  let frame_len = max 64 (54 + String.length payload) in
  Packet.Build.tcp ~frame_len ~src:conn.local_addr ~dst:conn.peer_addr
    ~src_port:conn.local_port ~dst_port:conn.peer_port
    ~seq:(Int32.of_int (seq land 0x7FFFFFFF))
    ~ack:(Int32.of_int (conn.rcv_nxt land 0x7FFFFFFF))
    ~flags:Packet.Tcp.flag_ack ~payload ()

let send_now conn f = ignore (conn.send_frame f)

(* Transmit the window: unsent bytes plus, on timeout, everything
   outstanding again (go-back-N). *)
let pump_conn t conn =
  if conn.state = Established then begin
    let now = Sim.Engine.time t.engine in
    let timeout = Sim.Engine.of_seconds 5e-3 in
    let outstanding = conn.snd_nxt - conn.snd_una in
    (if
       outstanding > 0
       && Int64.sub now conn.last_progress > timeout
     then begin
       (* Retransmit from the oldest unacknowledged byte. *)
       conn.snd_nxt <- conn.snd_una;
       conn.retx <- conn.retx + 1;
       conn.last_progress <- now
     end);
    let total = iss + 1 + Buffer.length conn.send_buf in
    let limit = min total (conn.snd_una + (window_segments * mss)) in
    while conn.snd_nxt < limit do
      let seq = conn.snd_nxt in
      let n = min mss (limit - seq) in
      let payload = Buffer.sub conn.send_buf (seq - iss - 1) n in
      send_now conn (seg_at conn ~seq ~payload);
      conn.snd_nxt <- seq + n
    done
  end

let pump t = Hashtbl.iter (fun _ c -> pump_conn t c) t.conns

let create engine ~addr ~send () =
  let t =
    {
      engine;
      addr;
      send;
      conns = Hashtbl.create 16;
      listeners = Hashtbl.create 4;
    }
  in
  Sim.Engine.spawn engine "host-pump" (fun () ->
      let rec tick () =
        Sim.Engine.wait_in engine 150_000_000;
        pump t;
        tick ()
      in
      tick ());
  t

let mk_conn t ~local_port ~peer_addr ~peer_port ~state =
  {
    local_addr = t.addr;
    local_port;
    peer_addr;
    peer_port;
    state;
    snd_una = iss + 1;
    snd_nxt = iss + 1;
    rcv_nxt = 0;
    send_buf = Buffer.create 256;
    recv_buf = Buffer.create 256;
    ooo = Hashtbl.create 8;
    retx = 0;
    last_progress = Sim.Engine.time t.engine;
    send_frame = t.send;
  }

let listen t ~port =
  if not (Hashtbl.mem t.listeners port) then
    Hashtbl.replace t.listeners port (ref [])

let connect t ~dst ~dst_port ~src_port =
  let conn =
    mk_conn t ~local_port:src_port ~peer_addr:dst ~peer_port:dst_port
      ~state:Syn_sent
  in
  Hashtbl.replace t.conns (src_port, dst, dst_port) conn;
  (* SYN consumes sequence number iss. *)
  let syn =
    Packet.Build.tcp ~src:t.addr ~dst ~src_port ~dst_port
      ~seq:(Int32.of_int iss) ~flags:Packet.Tcp.flag_syn ()
  in
  ignore (t.send syn);
  conn

let accepted t ~port =
  match Hashtbl.find_opt t.listeners port with
  | Some l -> List.rev !l
  | None -> []

let established c = c.state = Established

let send c data =
  Buffer.add_string c.send_buf data

let received c = Buffer.contents c.recv_buf
let all_acked c = c.snd_una = iss + 1 + Buffer.length c.send_buf
let peer c = (c.peer_addr, c.peer_port)
let retransmissions c = c.retx

let payload_of frame =
  let tcp_base = Packet.Ipv4.payload_offset frame in
  let data_off = tcp_base + 20 in
  let seg_len =
    Packet.Ipv4.get_total_len frame - Packet.Ipv4.header_len frame - 20
  in
  if seg_len <= 0 || data_off + seg_len > Packet.Frame.len frame then ""
  else Bytes.sub_string frame.Packet.Frame.data data_off seg_len

(* Fold an out-of-order stash into the in-order stream. *)
let drain_ooo conn =
  let progress = ref true in
  while !progress do
    progress := false;
    match Hashtbl.find_opt conn.ooo conn.rcv_nxt with
    | Some payload ->
        Hashtbl.remove conn.ooo conn.rcv_nxt;
        Buffer.add_string conn.recv_buf payload;
        conn.rcv_nxt <- conn.rcv_nxt + String.length payload;
        progress := true
    | None -> ()
  done

let handle_established t conn frame =
  let seq = Int32.to_int (Packet.Tcp.get_seq frame) in
  let ack = Int32.to_int (Packet.Tcp.get_ack frame) in
  let payload = payload_of frame in
  (* Acknowledgement progress. *)
  (if
     Packet.Tcp.has_flag frame Packet.Tcp.flag_ack
     && ack > conn.snd_una
     && ack <= conn.snd_nxt + 1
   then begin
     conn.snd_una <- ack;
     conn.last_progress <- Sim.Engine.time t.engine
   end);
  (* Data. *)
  if String.length payload > 0 then begin
    (if seq = conn.rcv_nxt then begin
       Buffer.add_string conn.recv_buf payload;
       conn.rcv_nxt <- conn.rcv_nxt + String.length payload;
       drain_ooo conn
     end
     else if seq > conn.rcv_nxt then Hashtbl.replace conn.ooo seq payload);
    (* Cumulative ACK, data-less. *)
    send_now conn (seg conn ())
  end

let deliver t frame =
  if
    Packet.Frame.len frame >= Packet.Ipv4.offset + Packet.Ipv4.min_header_len
    && Packet.Ipv4.get_dst frame = t.addr
    && Packet.Ipv4.get_proto frame = Packet.Ipv4.proto_tcp
  then begin
    let src_addr = Packet.Ipv4.get_src frame in
    let src_port = Packet.Tcp.get_src_port frame in
    let dst_port = Packet.Tcp.get_dst_port frame in
    let key = (dst_port, src_addr, src_port) in
    match Hashtbl.find_opt t.conns key with
    | Some conn -> begin
        match conn.state with
        | Syn_sent
          when Packet.Tcp.has_flag frame Packet.Tcp.flag_syn
               && Packet.Tcp.has_flag frame Packet.Tcp.flag_ack ->
            conn.rcv_nxt <- Int32.to_int (Packet.Tcp.get_seq frame) + 1;
            conn.snd_una <- Int32.to_int (Packet.Tcp.get_ack frame);
            conn.state <- Established;
            send_now conn (seg conn ())
        | Syn_rcvd when Packet.Tcp.has_flag frame Packet.Tcp.flag_ack ->
            conn.state <- Established;
            handle_established t conn frame
        | Established -> handle_established t conn frame
        | Syn_sent | Syn_rcvd -> ()
      end
    | None ->
        (* Passive open. *)
        if
          Packet.Tcp.has_flag frame Packet.Tcp.flag_syn
          && not (Packet.Tcp.has_flag frame Packet.Tcp.flag_ack)
        then begin
          match Hashtbl.find_opt t.listeners dst_port with
          | None -> ()
          | Some acc ->
              let conn =
                mk_conn t ~local_port:dst_port ~peer_addr:src_addr
                  ~peer_port:src_port ~state:Syn_rcvd
              in
              conn.rcv_nxt <- Int32.to_int (Packet.Tcp.get_seq frame) + 1;
              Hashtbl.replace t.conns key conn;
              acc := conn :: !acc;
              (* SYN-ACK consumes iss. *)
              let synack =
                Packet.Build.tcp ~src:t.addr ~dst:src_addr ~src_port:dst_port
                  ~dst_port:src_port ~seq:(Int32.of_int iss)
                  ~ack:(Int32.of_int conn.rcv_nxt)
                  ~flags:(Packet.Tcp.flag_syn lor Packet.Tcp.flag_ack)
                  ()
              in
              send_now conn synack
        end
  end
