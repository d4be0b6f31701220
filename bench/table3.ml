(* Table 3: MicroEngine cycle times to move common-sized blocks through
   each memory, measured by a single probing context on an otherwise idle
   chip, then again under heavy background load to show the contention the
   idle numbers hide. *)

let probe ~loaded =
  let engine = Sim.Engine.create () in
  let chip = Ixp.Chip.create ~ports:[] engine in
  if loaded then
    (* Sixteen contexts hammering each channel in the background. *)
    for i = 0 to 15 do
      Sim.Engine.spawn engine
        (Printf.sprintf "bg%d" i)
        (fun () ->
          let rec go () =
            Ixp.Mem.read chip.Ixp.Chip.dram ~bytes:32;
            Ixp.Mem.read chip.Ixp.Chip.sram ~bytes:4;
            Ixp.Mem.write chip.Ixp.Chip.scratch ~bytes:4;
            go ()
          in
          go ())
    done;
  let results = ref [] in
  Sim.Engine.spawn engine "probe" (fun () ->
      Sim.Engine.wait_in engine 1_000_000;
      let sample name mem bytes =
        let avg_over op =
          let t0 = Sim.Engine.clock_i engine in
          for _ = 1 to 100 do
            op ()
          done;
          float_of_int (Sim.Engine.clock_i engine - t0) /. 100. /. 5000.
        in
        let rd = avg_over (fun () -> Ixp.Mem.read mem ~bytes) in
        let wr = avg_over (fun () -> Ixp.Mem.write mem ~bytes) in
        results := (name, bytes, rd, wr) :: !results
      in
      sample "DRAM" chip.Ixp.Chip.dram 32;
      sample "SRAM" chip.Ixp.Chip.sram 4;
      sample "Scratch" chip.Ixp.Chip.scratch 4);
  Sim.Engine.run engine ~until:(Sim.Engine.of_seconds 1e-3);
  List.rev !results

let run () =
  Report.section "Table 3: memory transfer latencies (MicroEngine cycles)";
  let paper = [ ("DRAM", 52., 40.); ("SRAM", 22., 22.); ("Scratch", 16., 20.) ] in
  List.iter2
    (fun (name, bytes, rd, wr) (pname, prd, pwr) ->
      assert (name = pname);
      Report.row ~unit_:"cyc"
        ~name:(Printf.sprintf "%s %dB read" name bytes)
        ~paper:prd ~measured:rd;
      Report.row ~unit_:"cyc"
        ~name:(Printf.sprintf "%s %dB write" name bytes)
        ~paper:pwr ~measured:wr)
    (probe ~loaded:false) paper;
  Report.info
    "under 16-context background load (contention the idle table hides):";
  List.iter
    (fun (name, bytes, rd, wr) ->
      Report.info "%s %dB: read %.1f cyc, write %.1f cyc" name bytes rd wr)
    (probe ~loaded:true)
