(* Tests for frames, headers, checksums, flows and MP segmentation. *)

let addr = Packet.Ipv4.addr_of_string

let sample_udp ?(frame_len = 64) () =
  Packet.Build.udp ~frame_len ~src:(addr "10.0.0.1") ~dst:(addr "10.1.2.3")
    ~src_port:1234 ~dst_port:80 ~payload:"hello" ()

let sample_tcp ?(frame_len = 64) () =
  Packet.Build.tcp ~frame_len ~src:(addr "192.168.0.5") ~dst:(addr "10.9.8.7")
    ~src_port:5555 ~dst_port:443 ~seq:1000l ~ack:2000l
    ~flags:(Packet.Tcp.flag_ack lor Packet.Tcp.flag_syn)
    ()

let frame_field_roundtrip () =
  let f = Packet.Frame.alloc 64 in
  Packet.Frame.set_u16 f 10 0xBEEF;
  Packet.Frame.set_u32 f 20 0xDEADBEEFl;
  Alcotest.(check int) "u16" 0xBEEF (Packet.Frame.get_u16 f 10);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Packet.Frame.get_u32 f 20)

let mac_roundtrip () =
  let m = Packet.Ethernet.mac_of_string "02:ab:cd:ef:01:99" in
  let f = Packet.Frame.alloc 64 in
  Packet.Ethernet.set_dst f m;
  Packet.Ethernet.set_src f (Packet.Ethernet.mac_of_port 3);
  Alcotest.(check int) "dst" m (Packet.Ethernet.get_dst f);
  Alcotest.(check string) "pp" "02:ab:cd:ef:01:99"
    (Format.asprintf "%a" Packet.Ethernet.pp_mac m)

let addr_roundtrip =
  QCheck.Test.make ~name:"ipv4 addr string roundtrip" ~count:200 QCheck.int32
    (fun a ->
      let s = Format.asprintf "%a" Packet.Ipv4.pp_addr a in
      Packet.Ipv4.addr_of_string s = a)

let built_packets_validate () =
  Alcotest.(check bool) "udp valid" true (Packet.Ipv4.valid (sample_udp ()));
  Alcotest.(check bool) "tcp valid" true (Packet.Ipv4.valid (sample_tcp ()));
  Alcotest.(check bool) "tcp cksum" true (Packet.Tcp.cksum_ok (sample_tcp ()))

let corrupt_header_detected () =
  let f = sample_udp () in
  Packet.Frame.set_u8 f (Packet.Ipv4.offset + 8) 77 (* TTL, no cksum fix *);
  Alcotest.(check bool) "invalid" false (Packet.Ipv4.valid f)

let ttl_decrement_incremental () =
  let f = sample_udp () in
  Alcotest.(check bool) "decrements" true (Packet.Ipv4.decrement_ttl f);
  Alcotest.(check int) "ttl" 63 (Packet.Ipv4.get_ttl f);
  Alcotest.(check bool) "still valid" true (Packet.Ipv4.valid f)

let ttl_expiry_refused () =
  let f =
    Packet.Build.udp ~src:(addr "1.1.1.1") ~dst:(addr "2.2.2.2") ~src_port:1
      ~dst_port:2 ~ttl:1 ()
  in
  Alcotest.(check bool) "refused" false (Packet.Ipv4.decrement_ttl f);
  Alcotest.(check int) "untouched" 1 (Packet.Ipv4.get_ttl f)

let ttl_qcheck =
  QCheck.Test.make ~name:"incremental TTL update preserves validity"
    ~count:200
    QCheck.(int_range 2 255)
    (fun ttl ->
      let f =
        Packet.Build.udp ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
          ~src_port:7 ~dst_port:8 ~ttl ()
      in
      let rec hops ok =
        if not ok then false
        else if Packet.Ipv4.get_ttl f > 1 then
          hops (Packet.Ipv4.decrement_ttl f && Packet.Ipv4.valid f)
        else true
      in
      hops true)

let checksum_rfc1624_update =
  QCheck.Test.make ~name:"incremental checksum equals recompute" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (old_word, new_word) ->
      let b = Bytes.make 20 '\000' in
      Bytes.set b 0 (Char.chr (old_word lsr 8));
      Bytes.set b 1 (Char.chr (old_word land 0xFF));
      let c0 = Packet.Checksum.compute b ~off:0 ~len:20 in
      Bytes.set b 0 (Char.chr (new_word lsr 8));
      Bytes.set b 1 (Char.chr (new_word land 0xFF));
      let direct = Packet.Checksum.compute b ~off:0 ~len:20 in
      let incr = Packet.Checksum.update16 ~old_cksum:c0 ~old_word ~new_word in
      (* Both are valid checksums for the new data: verify both. *)
      Bytes.set b 10 (Char.chr (incr lsr 8));
      Bytes.set b 11 (Char.chr (incr land 0xFF));
      let v_incr = Packet.Checksum.verify b ~off:0 ~len:20 in
      Bytes.set b 10 (Char.chr (direct lsr 8));
      Bytes.set b 11 (Char.chr (direct land 0xFF));
      v_incr && Packet.Checksum.verify b ~off:0 ~len:20)

let checksum_verify_roundtrip =
  QCheck.Test.make ~name:"checksum verify(compute) holds" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 64) (int_bound 255))
    (fun bytes ->
      let n = List.length bytes + 2 in
      let b = Bytes.make n '\000' in
      List.iteri (fun i v -> Bytes.set b (i + 2) (Char.chr v)) bytes;
      let c = Packet.Checksum.compute b ~off:0 ~len:n in
      Bytes.set b 0 (Char.chr (c lsr 8));
      Bytes.set b 1 (Char.chr (c land 0xFF));
      (* Checksum field position is arbitrary as long as it was zero when
         computing; here it is bytes 0-1. *)
      Packet.Checksum.verify b ~off:0 ~len:n)

let flow_extraction () =
  let f = sample_tcp () in
  match Packet.Flow.of_frame f with
  | None -> Alcotest.fail "expected a flow"
  | Some t ->
      Alcotest.(check int) "sport" 5555 t.Packet.Flow.src_port;
      Alcotest.(check int) "dport" 443 t.Packet.Flow.dst_port;
      let r = Packet.Flow.reverse t in
      Alcotest.(check int) "reversed" 443 r.Packet.Flow.src_port;
      Alcotest.(check bool) "reverse involutive" true
        (Packet.Flow.equal_tuple t (Packet.Flow.reverse r))

let flow_matches () =
  let f = sample_tcp () in
  let t = Option.get (Packet.Flow.of_frame f) in
  Alcotest.(check bool) "all matches" true (Packet.Flow.matches Packet.Flow.All f);
  Alcotest.(check bool) "tuple matches" true
    (Packet.Flow.matches (Packet.Flow.Tuple t) f);
  Alcotest.(check bool) "other tuple no" false
    (Packet.Flow.matches
       (Packet.Flow.Tuple { t with Packet.Flow.src_port = 1 })
       f)

let mp_split_counts () =
  Alcotest.(check int) "64B -> 1" 1 (Packet.Mp.count 64);
  Alcotest.(check int) "65B -> 2" 2 (Packet.Mp.count 65);
  Alcotest.(check int) "1518B -> 24" 24 (Packet.Mp.count 1518);
  (* The MAC tags each MP as it segments the frame into port memory;
     the input loop reads the tags off the burst's meta words. *)
  let f = sample_udp ~frame_len:200 () in
  let p =
    Ixp.Mac_port.create (Sim.Engine.create ()) ~id:0 ~mbps:100. ~rx_slots:8 ()
  in
  Alcotest.(check bool) "offer accepted" true (Ixp.Mac_port.offer p f);
  let meta = Array.make 8 0 and frames = Array.make 8 f in
  let n = Ixp.Mac_port.take_burst p ~meta ~frames ~max:8 in
  Alcotest.(check int) "4 MPs" 4 n;
  let tag i = Ixp.Mac_port.tag_of_meta meta.(i) in
  Alcotest.(check bool) "first tag" true (tag 0 = Packet.Mp.First);
  Alcotest.(check bool) "intermediate tags" true
    (tag 1 = Packet.Mp.Intermediate && tag 2 = Packet.Mp.Intermediate);
  Alcotest.(check bool) "last tag" true (tag 3 = Packet.Mp.Last);
  Alcotest.(check (list int)) "indices in order" [ 0; 1; 2; 3 ]
    (List.init n (fun i -> Ixp.Mac_port.index_of_meta meta.(i)))

let options_insertion () =
  let f = sample_udp () in
  let g = Packet.Build.with_ip_options f in
  Alcotest.(check bool) "has options" true (Packet.Ipv4.has_options g);
  Alcotest.(check bool) "still valid" true (Packet.Ipv4.valid g);
  Alcotest.(check int) "ihl 6" 6 (Packet.Ipv4.get_ihl g)

let tcp_incremental_u32 () =
  let f = sample_tcp () in
  let old_v = Packet.Tcp.get_seq f in
  let new_v = Int32.add old_v 4242l in
  Packet.Tcp.set_seq f new_v;
  Packet.Tcp.update_cksum_u32 f ~old_v ~new_v;
  Alcotest.(check bool) "checksum still ok" true (Packet.Tcp.cksum_ok f)

(* --- codec round-trips: build -> parse -> rebuild = identity ---------- *)

(* Recover the L4 payload from the lengths the headers claim, not from the
   frame length (frames are padded to the Ethernet minimum). *)
let parsed_payload f ~l4_header_len =
  let data_off = Packet.Ipv4.payload_offset f + l4_header_len in
  let data_len =
    Packet.Ipv4.get_total_len f - Packet.Ipv4.header_len f - l4_header_len
  in
  String.init data_len (fun i -> Char.chr (Packet.Frame.get_u8 f (data_off + i)))

let udp_codec_roundtrip =
  QCheck.Test.make ~name:"udp build->parse->rebuild identity" ~count:200
    QCheck.(
      quad (pair int32 int32)
        (pair (int_bound 65535) (int_bound 65535))
        (int_range 1 255)
        (string_of_size (Gen.int_range 0 40)))
    (fun ((src, dst), (src_port, dst_port), ttl, payload) ->
      let f =
        Packet.Build.udp ~src ~dst ~src_port ~dst_port ~ttl ~payload ()
      in
      let g =
        Packet.Build.udp ~src:(Packet.Ipv4.get_src f)
          ~dst:(Packet.Ipv4.get_dst f)
          ~src_port:(Packet.Udp.get_src_port f)
          ~dst_port:(Packet.Udp.get_dst_port f)
          ~ttl:(Packet.Ipv4.get_ttl f)
          ~payload:(parsed_payload f ~l4_header_len:8)
          ()
      in
      Packet.Frame.equal f g)

let tcp_codec_roundtrip =
  QCheck.Test.make ~name:"tcp build->parse->rebuild identity" ~count:200
    QCheck.(
      quad (pair int32 int32)
        (pair (int_bound 65535) (int_bound 65535))
        (pair int32 int32)
        (pair (int_bound 0xFF) (string_of_size (Gen.int_range 0 40))))
    (fun ((src, dst), (src_port, dst_port), (seq, ack), (flags, payload)) ->
      let f =
        Packet.Build.tcp ~src ~dst ~src_port ~dst_port ~seq ~ack ~flags
          ~payload ()
      in
      let g =
        Packet.Build.tcp ~src:(Packet.Ipv4.get_src f)
          ~dst:(Packet.Ipv4.get_dst f)
          ~src_port:(Packet.Tcp.get_src_port f)
          ~dst_port:(Packet.Tcp.get_dst_port f)
          ~ttl:(Packet.Ipv4.get_ttl f) ~seq:(Packet.Tcp.get_seq f)
          ~ack:(Packet.Tcp.get_ack f)
          ~flags:(Packet.Tcp.get_flags f)
          ~payload:(parsed_payload f ~l4_header_len:20)
          ()
      in
      Packet.Frame.equal f g)

let icmp_codec_roundtrip =
  QCheck.Test.make ~name:"icmp echo build->parse->rebuild identity" ~count:200
    QCheck.(
      quad int32 int32 (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (src, dst, id, seq) ->
      let f = Packet.Icmp.echo_request ~src ~dst ~id ~seq () in
      (* No dedicated id/seq accessors: they live at bytes 4-5 and 6-7 of
         the ICMP message. *)
      let base = Packet.Ipv4.payload_offset f in
      let g =
        Packet.Icmp.echo_request ~src:(Packet.Ipv4.get_src f)
          ~dst:(Packet.Ipv4.get_dst f)
          ~id:(Packet.Frame.get_u16 f (base + 4))
          ~seq:(Packet.Frame.get_u16 f (base + 6))
          ()
      in
      Packet.Icmp.get_type f = Packet.Icmp.type_echo_request
      && Packet.Icmp.checksum_ok f
      && Packet.Frame.equal f g)

let mpls_codec_roundtrip =
  QCheck.Test.make ~name:"mpls push->parse->rebuild identity" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 3)
           (triple (int_bound 0xFFFFF) (int_bound 7) (int_range 0 255)))
        (pair int32 int32))
    (fun (entries, (src, dst)) ->
      let inner () =
        Packet.Build.udp ~src ~dst ~src_port:7 ~dst_port:8 ~payload:"x" ()
      in
      let f = inner () in
      List.iter
        (fun (label, tc, ttl) ->
          Packet.Mpls.push f { Packet.Mpls.label; tc; bos = false; ttl })
        entries;
      Packet.Mpls.is_mpls f
      && Packet.Mpls.stack_depth f = List.length entries
      && Packet.Mpls.payload_is_ipv4 f
      &&
      (* Rebuild from the parsed stack (deepest entry pushed first). *)
      let parsed =
        List.init (Packet.Mpls.stack_depth f) (Packet.Mpls.read_entry f)
      in
      let g = inner () in
      List.iter
        (fun e -> Packet.Mpls.push g { e with Packet.Mpls.bos = false })
        (List.rev parsed);
      Packet.Frame.equal f g
      &&
      (* Popping the whole stack restores the original frame exactly. *)
      (let popped = List.map (fun _ -> Packet.Mpls.pop f) parsed in
       List.map
         (fun (e : Packet.Mpls.entry) -> (e.label, e.tc, e.ttl))
         popped
       = List.rev (List.map (fun (l, tc, ttl) -> (l, tc, ttl)) entries)
       && Packet.Frame.equal f (inner ())))

let ipv4_flip_invalidates =
  (* Damaging any single header byte without refreshing the checksum must
     be caught: a one-byte delta can never cancel in the one's-complement
     sum, and the escape audit leans on exactly this property. *)
  QCheck.Test.make ~name:"ipv4 header byte flip invalidates" ~count:300
    QCheck.(pair (int_bound 19) (int_range 1 255))
    (fun (byte, mask) ->
      let f = sample_udp () in
      let i = Packet.Ipv4.offset + byte in
      Packet.Frame.set_u8 f i (Packet.Frame.get_u8 f i lxor mask);
      not (Packet.Ipv4.valid f))

let tcp_flip_invalidates =
  QCheck.Test.make ~name:"tcp header byte flip invalidates" ~count:300
    QCheck.(pair (int_bound 19) (int_range 1 255))
    (fun (byte, mask) ->
      let f = sample_tcp () in
      let i = Packet.Ipv4.payload_offset f + byte in
      Packet.Frame.set_u8 f i (Packet.Frame.get_u8 f i lxor mask);
      not (Packet.Tcp.cksum_ok f))

let icmp_flip_invalidates =
  QCheck.Test.make ~name:"icmp message byte flip invalidates" ~count:300
    QCheck.(pair (int_bound 7) (int_range 1 255))
    (fun (byte, mask) ->
      let f =
        Packet.Icmp.echo_request ~src:(addr "10.0.0.1") ~dst:(addr "10.0.0.2")
          ~id:7 ~seq:9 ()
      in
      let i = Packet.Ipv4.payload_offset f + byte in
      Packet.Frame.set_u8 f i (Packet.Frame.get_u8 f i lxor mask);
      not (Packet.Icmp.checksum_ok f))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      addr_roundtrip;
      ttl_qcheck;
      checksum_rfc1624_update;
      checksum_verify_roundtrip;
      udp_codec_roundtrip;
      tcp_codec_roundtrip;
      icmp_codec_roundtrip;
      mpls_codec_roundtrip;
      ipv4_flip_invalidates;
      tcp_flip_invalidates;
      icmp_flip_invalidates;
    ]

(* Frame pool: recycling identity, generation-tag tripwires, and the
   conservation invariant the router registers with the fault layer. *)

let pool_recycles_and_zeroes () =
  let p = Packet.Frame_pool.create ~frame_bytes:64 () in
  let f = Packet.Frame_pool.take p ~len:64 in
  Alcotest.(check int) "minted" 1 (Packet.Frame_pool.minted p);
  Packet.Frame.set_u8 f 10 0xAB;
  Packet.Frame_pool.give p f;
  let g = Packet.Frame_pool.take p ~len:32 in
  Alcotest.(check bool) "same storage" true (f == g);
  Alcotest.(check int) "recycles" 1 (Packet.Frame_pool.recycles p);
  Alcotest.(check int) "zeroed like fresh alloc" 0 (Packet.Frame.get_u8 g 10);
  Alcotest.(check int) "len reset" 32 (Packet.Frame.len g)

let pool_generation_tags () =
  let p = Packet.Frame_pool.create ~debug:true ~frame_bytes:64 () in
  let f = Packet.Frame_pool.take p ~len:64 in
  let gen0 = f.Packet.Frame.pool_gen in
  Packet.Frame_pool.give p f;
  (* Double give: the tag was invalidated by the first give. *)
  Alcotest.check_raises "double give raises in debug"
    (Invalid_argument
       "Frame_pool.give: stale frame (double give or give after recycle)")
    (fun () -> Packet.Frame_pool.give p f);
  let g = Packet.Frame_pool.take p ~len:64 in
  Alcotest.(check bool) "recycle bumps generation" true
    (g.Packet.Frame.pool_gen > gen0);
  (* A frame from some other pool is refused by identity. *)
  let q = Packet.Frame_pool.create ~debug:true ~frame_bytes:64 () in
  let foreign = Packet.Frame_pool.take q ~len:64 in
  Alcotest.check_raises "foreign frame raises in debug"
    (Invalid_argument "Frame_pool.give: frame from another pool") (fun () ->
      Packet.Frame_pool.give p foreign);
  (* Unpooled frames are silently ignored so every path can funnel in. *)
  Packet.Frame_pool.give p (Packet.Frame.alloc 64);
  Alcotest.(check int) "bad gives counted" 2 (Packet.Frame_pool.bad_gives p)

let pool_conservation () =
  let p = Packet.Frame_pool.create ~frame_bytes:80 () in
  let frames = List.init 10 (fun _ -> Packet.Frame_pool.take p ~len:64) in
  Alcotest.(check int) "outstanding" 10 (Packet.Frame_pool.outstanding p);
  Alcotest.(check (option string)) "holds checked out" None
    (Packet.Frame_pool.check p);
  List.iteri
    (fun i f -> if i mod 2 = 0 then Packet.Frame_pool.give p f)
    frames;
  Alcotest.(check int) "half returned" 5 (Packet.Frame_pool.outstanding p);
  Alcotest.(check (option string)) "holds after gives" None
    (Packet.Frame_pool.check p);
  (* Oversize and over-cap takes fall back to plain allocation and stay
     out of the books. *)
  let big = Packet.Frame_pool.take p ~len:200 in
  Alcotest.(check int) "oversize is unpooled" (-1) big.Packet.Frame.pool_slot;
  Alcotest.(check (option string)) "holds with fallbacks" None
    (Packet.Frame_pool.check p)

let tests =
  [
    Alcotest.test_case "frame field roundtrip" `Quick frame_field_roundtrip;
    Alcotest.test_case "frame pool: recycle zeroes" `Quick
      pool_recycles_and_zeroes;
    Alcotest.test_case "frame pool: generation tripwires" `Quick
      pool_generation_tags;
    Alcotest.test_case "frame pool: conservation" `Quick pool_conservation;
    Alcotest.test_case "mac roundtrip" `Quick mac_roundtrip;
    Alcotest.test_case "built packets validate" `Quick built_packets_validate;
    Alcotest.test_case "corrupt header detected" `Quick corrupt_header_detected;
    Alcotest.test_case "ttl decrement incremental" `Quick
      ttl_decrement_incremental;
    Alcotest.test_case "ttl expiry refused" `Quick ttl_expiry_refused;
    Alcotest.test_case "flow extraction" `Quick flow_extraction;
    Alcotest.test_case "flow matches" `Quick flow_matches;
    Alcotest.test_case "mp split counts/tags" `Quick mp_split_counts;
    Alcotest.test_case "ip options insertion" `Quick options_insertion;
    Alcotest.test_case "tcp incremental u32 checksum" `Quick
      tcp_incremental_u32;
  ]
  @ qsuite
