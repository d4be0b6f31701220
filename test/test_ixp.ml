(* Tests for the IXP1200 hardware model. *)

let mk_chip () =
  let e = Sim.Engine.create () in
  (e, Ixp.Chip.create e)

let mem_latency_matches_table3 () =
  let e, chip = mk_chip () in
  let probe mem bytes expect_read expect_write =
    let t0 = ref 0L and t1 = ref 0L and t2 = ref 0L in
    Sim.Engine.spawn e "probe" (fun () ->
        t0 := Sim.Engine.time e;
        Ixp.Mem.read mem ~bytes;
        t1 := Sim.Engine.time e;
        Ixp.Mem.write mem ~bytes;
        t2 := Sim.Engine.time e);
    Sim.Engine.run_until_idle e;
    let cycles d = Int64.to_int (Int64.div d 5000L) in
    Alcotest.(check int) "read cycles" expect_read (cycles (Int64.sub !t1 !t0));
    Alcotest.(check int) "write cycles" expect_write
      (cycles (Int64.sub !t2 !t1))
  in
  probe chip.Ixp.Chip.dram 32 52 40;
  probe chip.Ixp.Chip.sram 4 22 22;
  probe chip.Ixp.Chip.scratch 4 16 20

let mem_splits_large_transfers () =
  let _, chip = mk_chip () in
  Alcotest.(check int) "64B DRAM = 2 ops" 2
    (Ixp.Mem.read_ops chip.Ixp.Chip.dram ~bytes:64);
  Alcotest.(check int) "20B SRAM = 5 ops" 5
    (Ixp.Mem.read_ops chip.Ixp.Chip.sram ~bytes:20)

let mem_contention_queues () =
  let e, chip = mk_chip () in
  let finished = ref [] in
  for i = 0 to 3 do
    Sim.Engine.spawn e
      (Printf.sprintf "c%d" i)
      (fun () ->
        Ixp.Mem.read chip.Ixp.Chip.dram ~bytes:32;
        finished := (i, Sim.Engine.time e) :: !finished)
  done;
  Sim.Engine.run_until_idle e;
  let times = List.rev_map snd !finished in
  (* Occupancy 8 cycles: completions stagger by at least 8 cycles. *)
  let sorted = List.sort compare times in
  let rec gaps = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "staggered" true (Int64.sub b a >= 40000L);
        gaps rest
    | _ -> ()
  in
  gaps sorted

let circular_pool_single_pass () =
  let pool = Ixp.Buffer_pool.create_circular ~count:4 () in
  let f = Packet.Frame.alloc 64 in
  let h0 = Ixp.Buffer_pool.alloc pool f in
  Alcotest.(check bool) "readable" true (Ixp.Buffer_pool.read pool h0 <> None);
  (* Lap the pool: h0's buffer is reused. *)
  for _ = 1 to 4 do
    ignore (Ixp.Buffer_pool.alloc pool f)
  done;
  Alcotest.(check (option reject)) "stale after lap" None
    (Ixp.Buffer_pool.read pool h0);
  Alcotest.(check int) "stale read counted" 1 (Ixp.Buffer_pool.stale_reads pool)

(* A circular buffer holds its frame only until transmit: [free]
   releases the frame at once and the handle reads as stale from then
   on, while the cursor still laps every slot, so [overwrites] counts
   the same reuse as if nothing had been freed. *)
let circular_free_releases () =
  let module P = Ixp.Buffer_pool in
  let pool = P.create_circular ~count:4 () in
  let released = ref 0 in
  P.set_release pool (fun _ -> incr released);
  let f = Packet.Frame.alloc 64 in
  let hs = Array.init 4 (fun _ -> P.alloc pool f) in
  P.free pool hs.(0);
  Alcotest.(check int) "free releases the frame" 1 !released;
  Alcotest.check_raises "freed handle is stale" P.Stale (fun () ->
      ignore (P.get pool hs.(0)));
  Alcotest.(check int) "stale read counted" 1 (P.stale_reads pool);
  Alcotest.(check bool) "neighbour still reads" true (P.read pool hs.(1) <> None);
  P.free pool hs.(0);
  Alcotest.(check int) "double free releases nothing" 1 !released;
  for _ = 1 to 4 do
    ignore (P.alloc pool f)
  done;
  Alcotest.(check int) "a full lap overwrites every slot" 4 (P.overwrites pool);
  Alcotest.(check int) "the lap releases only the unfreed frames" 4 !released;
  Alcotest.(check (option string)) "check" None (P.check pool)

let stack_pool_recycles () =
  let pool = Ixp.Buffer_pool.create_stack ~count:2 () in
  let f = Packet.Frame.alloc 64 in
  let h1 = Ixp.Buffer_pool.alloc pool f in
  let _h2 = Ixp.Buffer_pool.alloc pool f in
  Alcotest.(check int) "in use" 2 (Ixp.Buffer_pool.in_use pool);
  Alcotest.check_raises "exhausted" (Failure "Buffer_pool: out of buffers")
    (fun () -> ignore (Ixp.Buffer_pool.alloc pool f));
  Ixp.Buffer_pool.free pool h1;
  let h3 = Ixp.Buffer_pool.alloc pool f in
  Alcotest.(check bool) "recycled readable" true
    (Ixp.Buffer_pool.read pool h3 <> None);
  Alcotest.(check (option reject)) "old handle stale" None
    (Ixp.Buffer_pool.read pool h1)

let istore_accounting () =
  let st = Ixp.Istore.create Ixp.Config.default in
  Alcotest.(check int) "vrp capacity" 650 (Ixp.Istore.capacity_vrp st);
  (match Ixp.Istore.install st ~slots:100 with
  | Ok h ->
      Alcotest.(check int) "used" 100 (Ixp.Istore.used st);
      Ixp.Istore.remove st h;
      Alcotest.(check int) "freed" 0 (Ixp.Istore.used st)
  | Error e -> Alcotest.fail e);
  (match Ixp.Istore.install st ~slots:651 with
  | Ok _ -> Alcotest.fail "should not fit"
  | Error _ -> ());
  Alcotest.(check int) "write cost 10 instr = 800 cycles" 800
    (Ixp.Istore.write_cost_cycles st ~slots:10)

let mac_port_rx_overflow () =
  let e = Sim.Engine.create () in
  let p = Ixp.Mac_port.create e ~id:0 ~mbps:100. ~rx_slots:3 () in
  let small = Packet.Frame.alloc 64 in
  Alcotest.(check bool) "first fits" true (Ixp.Mac_port.offer p small);
  Alcotest.(check bool) "second fits" true (Ixp.Mac_port.offer p small);
  Alcotest.(check bool) "third fits" true (Ixp.Mac_port.offer p small);
  Alcotest.(check bool) "fourth drops" false (Ixp.Mac_port.offer p small);
  Alcotest.(check int) "drop counted" 1 (Ixp.Mac_port.rx_dropped p)

(* The MAC segments a received frame into MPs that all reference the one
   buffer; the transmit side hands that buffer on whole, with no
   scatter/gather step. *)
let mac_port_reassembly () =
  let e = Sim.Engine.create () in
  let got = ref None in
  let p =
    Ixp.Mac_port.create e ~id:1 ~mbps:100. ~rx_slots:64
      ~sink:(fun f -> got := Some f)
      ()
  in
  let f =
    Packet.Build.udp ~frame_len:200
      ~src:(Packet.Ipv4.addr_of_string "1.2.3.4")
      ~dst:(Packet.Ipv4.addr_of_string "5.6.7.8")
      ~src_port:1 ~dst_port:2 ~payload:"reassemble me" ()
  in
  Alcotest.(check bool) "offer accepted" true (Ixp.Mac_port.offer p f);
  let meta = Array.make 8 0 and frames = Array.make 8 f in
  let n = Ixp.Mac_port.take_burst p ~meta ~frames ~max:8 in
  Alcotest.(check int) "one MP per 64 bytes" (Packet.Mp.count 200) n;
  for i = 0 to n - 1 do
    Alcotest.(check bool) "MP carries its frame" true (frames.(i) == f);
    Alcotest.(check int) "MP index" i (Ixp.Mac_port.index_of_meta meta.(i))
  done;
  Ixp.Mac_port.transmit_frame p frames.(0) ~len:200;
  (match !got with
  | Some g -> Alcotest.(check bool) "frame intact" true (Packet.Frame.equal f g)
  | None -> Alcotest.fail "no frame delivered");
  Alcotest.(check int) "tx count" 1 (Ixp.Mac_port.tx_frames p)

(* What a sink receives from [transmit_frame]: a private copy unless it
   borrows, the DRAM frame itself only when a borrowing sink asks for
   the frame's full length, and nothing while the link is down. *)
let mac_transmit_frame_sinks () =
  let e = Sim.Engine.create () in
  let got = ref [] in
  let p = Ixp.Mac_port.create e ~id:3 ~mbps:100. ~rx_slots:8 () in
  Ixp.Mac_port.set_sink_borrows p true;
  Ixp.Mac_port.set_sink p (fun g -> got := g :: !got);
  let f =
    Packet.Build.udp ~frame_len:128
      ~src:(Packet.Ipv4.addr_of_string "1.2.3.4")
      ~dst:(Packet.Ipv4.addr_of_string "5.6.7.8")
      ~src_port:1 ~dst_port:2 ()
  in
  let snapshot = Packet.Frame.copy f in
  let last () =
    match !got with g :: _ -> g | [] -> Alcotest.fail "no frame delivered"
  in
  (* [set_sink] cleared the borrow flag: an external sink owns a copy. *)
  Ixp.Mac_port.transmit_frame p f ~len:128;
  let g = last () in
  Alcotest.(check bool) "external sink gets a copy" true (g != f);
  Packet.Frame.set_u8 g 20 (Packet.Frame.get_u8 g 20 lxor 0xFF);
  Alcotest.(check bool) "mutating the copy leaves DRAM intact" true
    (Packet.Frame.equal f snapshot);
  Ixp.Mac_port.set_sink_borrows p true;
  Ixp.Mac_port.transmit_frame p f ~len:128;
  Alcotest.(check bool) "borrowing sink, same len: the frame itself" true
    (last () == f);
  Ixp.Mac_port.transmit_frame p f ~len:100;
  let g = last () in
  Alcotest.(check bool) "borrowing sink, other len: a copy" true (g != f);
  Alcotest.(check int) "copy cut to len" 100 (Packet.Frame.len g);
  Alcotest.(check bool) "copy is the prefix" true
    (Packet.Frame.equal g (Packet.Frame.prefix_copy f ~len:100));
  Alcotest.(check int) "three delivered" 3 (List.length !got);
  Ixp.Mac_port.set_link_up p false;
  Ixp.Mac_port.transmit_frame p f ~len:128;
  Alcotest.(check int) "link down counted" 1 (Ixp.Mac_port.tx_link_down p);
  Alcotest.(check int) "nothing delivered while down" 3 (List.length !got);
  Alcotest.(check int) "tx frames exclude the dead PHY" 3
    (Ixp.Mac_port.tx_frames p)

let mac_frame_time () =
  let e = Sim.Engine.create () in
  let p = Ixp.Mac_port.create e ~id:0 ~mbps:100. ~rx_slots:4 () in
  (* (64B + 20B overhead) x 8 = 672 bits = 6.72 us at 100 Mbps. *)
  Alcotest.(check int64) "64B wire time" 6720000L
    (Ixp.Mac_port.frame_time_ps p ~bytes:64)

let pci_bandwidth () =
  let e, chip = mk_chip () in
  let pci = chip.Ixp.Chip.pci in
  let t_done = ref 0L in
  Sim.Engine.spawn e "dma" (fun () ->
      Ixp.Pci.dma_blocking pci ~bytes:1330;
      t_done := Sim.Engine.time e);
  Sim.Engine.run_until_idle e;
  (* 1330 B at 133 MB/s = 10 us (chunked transfers round per chunk). *)
  Alcotest.(check bool) "transfer time ~10us" true
    (Int64.abs (Int64.sub !t_done 10_000_000L) <= 100L)

let i2o_roundtrip_and_backpressure () =
  let e, chip = mk_chip () in
  let q = Ixp.I2o.create chip.Ixp.Chip.pci ~buffers:2 () in
  let received = ref [] in
  let sent = ref 0 in
  Sim.Engine.spawn e "producer" (fun () ->
      for i = 1 to 5 do
        Ixp.I2o.acquire_free q;
        Ixp.I2o.send_acquired q ~bytes:64 i;
        sent := i
      done);
  Sim.Engine.spawn e "consumer" (fun () ->
      for _ = 1 to 5 do
        Sim.Engine.wait_in e 2_000_000;
        received := Ixp.I2o.recv q :: !received
      done);
  Sim.Engine.run_until_idle e;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !received);
  Alcotest.(check int) "all sent" 5 !sent

(* The pool as first written, one record per slot and a [Stack.t] free
   list: the reference the flat arrays must match op for op.  Frames
   are ids ([-1] = the empty slot).  A slot is [live] from its alloc
   until its free, in either mode; only a live slot reads, and a
   circular alloc releases the old frame only if it is still live. *)
module Ref_pool = struct
  type slot = {
    mutable frame : int;
    mutable generation : int;
    mutable live : bool;
  }

  type t = {
    slots : slot array;
    circular : bool;
    mutable next : int;
    free : int Stack.t;
    mutable overwrites : int;
    mutable stale_reads : int;
    mutable in_use : int;
    mutable released : int list;
  }

  let create ~circular ~count =
    let free = Stack.create () in
    if not circular then
      for i = count - 1 downto 0 do
        Stack.push i free
      done;
    {
      slots =
        Array.init count (fun _ ->
            { frame = -1; generation = 0; live = false });
      circular;
      next = 0;
      free;
      overwrites = 0;
      stale_reads = 0;
      in_use = 0;
      released = [];
    }

  let handle index generation = Ixp.Buffer_pool.handle_of ~index ~generation

  (* The handle, or -1 when a stack pool is dry. *)
  let alloc t f =
    if t.circular then begin
      let index = t.next in
      t.next <- (t.next + 1) mod Array.length t.slots;
      let slot = t.slots.(index) in
      if slot.generation > 0 then t.overwrites <- t.overwrites + 1;
      if slot.live then t.released <- slot.frame :: t.released;
      slot.generation <- slot.generation + 1;
      slot.frame <- f;
      slot.live <- true;
      handle index slot.generation
    end
    else if Stack.is_empty t.free then -1
    else begin
      let index = Stack.pop t.free in
      let slot = t.slots.(index) in
      slot.generation <- slot.generation + 1;
      slot.frame <- f;
      slot.live <- true;
      t.in_use <- t.in_use + 1;
      handle index slot.generation
    end

  (* The frame, or [None] for a stale or freed handle. *)
  let get t h =
    let slot = t.slots.(Ixp.Buffer_pool.handle_index h) in
    if
      slot.generation <> Ixp.Buffer_pool.handle_generation h || not slot.live
    then begin
      t.stale_reads <- t.stale_reads + 1;
      None
    end
    else Some slot.frame

  let free t h =
    let index = Ixp.Buffer_pool.handle_index h in
    let slot = t.slots.(index) in
    if slot.live && slot.generation = Ixp.Buffer_pool.handle_generation h then begin
      slot.live <- false;
      t.released <- slot.frame :: t.released;
      slot.frame <- -1;
      if not t.circular then begin
        t.in_use <- t.in_use - 1;
        Stack.push index t.free
      end
    end
end

(* Random alloc/get/read/free in either mode, on pools of 1-6 buffers
   so circular laps (stale reads, overwrites) and dry stacks come
   often, with and without a release hook: every answer, counter and
   release matches the reference, and [check] stays [None].  The size
   is drawn as [1 + int_bound 5] because QCheck's integer shrinker
   walks towards 0 whatever the range, and a 0-buffer pool would report
   [Invalid_argument] in place of the counterexample. *)
let pool_matches_reference =
  QCheck.Test.make ~name:"flat buffer pool = record-per-slot reference"
    ~count:400
    QCheck.(
      quad bool (int_bound 5) bool
        (list_of_size (Gen.int_bound 80) (pair (int_bound 6) (int_bound 30))))
    (fun (circular, size, hook, ops) ->
      let count = size + 1 in
      let module P = Ixp.Buffer_pool in
      let frames = Array.init 8 (fun _ -> Packet.Frame.alloc 64) in
      let id_of f =
        let rec go i =
          if i = Array.length frames then -1
          else if frames.(i) == f then i
          else go (i + 1)
        in
        go 0
      in
      let pool =
        if circular then P.create_circular ~count ()
        else P.create_stack ~count ()
      in
      let released = ref [] in
      if hook then
        P.set_release pool (fun f -> released := id_of f :: !released);
      let m = Ref_pool.create ~circular ~count in
      let issued = ref [||] in
      let pick x =
        let n = Array.length !issued in
        if n = 0 then P.handle_of ~index:(x mod count) ~generation:0
        else !issued.(x mod n)
      in
      let same_read h =
        let got =
          match P.get pool h with
          | f -> Some (id_of f)
          | exception P.Stale -> None
        in
        let read = Option.map id_of (P.read pool h) in
        let expect = Ref_pool.get m h in
        ignore (Ref_pool.get m h);
        got = expect && read = expect
      in
      List.for_all
        (fun (op, x) ->
          let ok =
            match op with
            | 0 | 1 ->
                let f = x mod Array.length frames in
                let h =
                  if op = 0 then P.alloc_try pool frames.(f)
                  else
                    match P.alloc pool frames.(f) with
                    | h -> h
                    | exception Failure _ -> -1
                in
                let expect = Ref_pool.alloc m f in
                if h >= 0 then issued := Array.append !issued [| h |];
                h = expect
            | 2 | 3 -> same_read (pick x)
            | 4 ->
                (* A forged handle: any slot, generation 0..3. *)
                same_read
                  (P.handle_of ~index:(x mod count)
                     ~generation:(x / count mod 4))
            | _ ->
                let h = pick x in
                P.free pool h;
                Ref_pool.free m h;
                true
          in
          ok
          && P.overwrites pool = m.Ref_pool.overwrites
          && P.stale_reads pool = m.Ref_pool.stale_reads
          && P.in_use pool = m.Ref_pool.in_use
          && P.count pool = count
          && P.check pool = None
          && !released = (if hook then m.Ref_pool.released else []))
        ops)

let qsuite = List.map QCheck_alcotest.to_alcotest [ pool_matches_reference ]

let tests =
  [
    Alcotest.test_case "memory latencies = Table 3" `Quick
      mem_latency_matches_table3;
    Alcotest.test_case "memory op splitting" `Quick mem_splits_large_transfers;
    Alcotest.test_case "memory contention queues" `Quick mem_contention_queues;
    Alcotest.test_case "circular pool single-pass lifetime" `Quick
      circular_pool_single_pass;
    Alcotest.test_case "circular free releases the frame" `Quick
      circular_free_releases;
    Alcotest.test_case "stack pool recycles" `Quick stack_pool_recycles;
    Alcotest.test_case "istore accounting" `Quick istore_accounting;
    Alcotest.test_case "mac port rx overflow" `Quick mac_port_rx_overflow;
    Alcotest.test_case "mac port reassembly" `Quick mac_port_reassembly;
    Alcotest.test_case "mac transmit_frame sink contract" `Quick
      mac_transmit_frame_sinks;
    Alcotest.test_case "mac frame wire time" `Quick mac_frame_time;
    Alcotest.test_case "pci bandwidth" `Quick pci_bandwidth;
    Alcotest.test_case "i2o roundtrip + backpressure" `Quick
      i2o_roundtrip_and_backpressure;
  ]
  @ qsuite
