(* Tests for the reference designs: HCOR, the DECT transceiver, the
   architecture-migration chain and the RAM cell. *)

let hist sys p =
  match Cycle_system.find_component sys p with
  | Some c -> Cycle_system.output_history sys c
  | None -> []

(* --- HCOR ----------------------------------------------------------------- *)

let hcor_setup ?(snr = 25.0) ?(seed = 7) () =
  let bits = Dect_stimuli.burst ~seed () in
  let tx = Dect_stimuli.transmit bits in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.15; -0.05 |] ~snr_db:snr ~seed tx in
  let samples =
    Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
  in
  let h = Hcor.create ~stimulus:(Hcor.sample_stimulus samples) () in
  (h, bits, rx, Array.length samples)

let test_hcor_finds_sync () =
  let h, _, rx, n = hcor_setup () in
  let sys = h.Hcor.system in
  Cycle_system.run sys (n + 10);
  let locked = hist sys "locked" in
  (match List.find_opt (fun (_, v) -> Fixed.is_true v) locked with
  | Some (c, _) ->
    (* The golden sync ends at bit 31; lock is registered one cycle later. *)
    let golden = Dect_stimuli.find_sync (Dect_stimuli.slice rx) ~threshold:14 in
    (match golden with
    | Some g -> Alcotest.(check int) "lock = golden + 1" (g + 1) c
    | None -> Alcotest.fail "golden did not find sync")
  | None -> Alcotest.fail "HCOR never locked")

let test_hcor_payload_bits () =
  let h, bits, _, n = hcor_setup () in
  let sys = h.Hcor.system in
  Cycle_system.run sys (n + 10);
  let locked = Array.make (n + 10) false in
  List.iter
    (fun (c, v) -> if c < n + 10 then locked.(c) <- Fixed.is_true v)
    (hist sys "locked");
  let emitted =
    List.filter (fun (c, _) -> c < n + 10 && locked.(c)) (hist sys "bit_out")
  in
  let payload = Array.sub bits 32 388 in
  Alcotest.(check int) "payload length" 388 (List.length emitted);
  List.iteri
    (fun i (_, v) ->
      if Fixed.is_true v <> payload.(i) then
        Alcotest.failf "payload bit %d wrong" i)
    emitted

let test_hcor_relocks () =
  (* After the payload, HCOR returns to search and locks a second burst. *)
  let bits = Dect_stimuli.burst ~seed:5 () in
  let tx = Dect_stimuli.transmit bits in
  let rx = Dect_stimuli.channel ~taps:[| 1.0 |] ~snr_db:40.0 ~seed:5 tx in
  let one = Array.map (fun x -> x /. 2.0) rx in
  let stream = Array.append one one in
  let samples = Dect_stimuli.quantize Hcor.sample_format stream in
  let h = Hcor.create ~payload_len:388 ~stimulus:(Hcor.sample_stimulus samples) () in
  let sys = h.Hcor.system in
  Cycle_system.run sys (Array.length stream + 10);
  let locks =
    let rec edges prev = function
      | [] -> []
      | (c, v) :: rest ->
        let now = Fixed.is_true v in
        (if now && not prev then [ c ] else []) @ edges now rest
    in
    edges false (hist sys "locked")
  in
  Alcotest.(check int) "two lock events" 2 (List.length locks)

let test_hcor_no_false_lock_on_noise () =
  (* A constant positive level slices to all-ones; the sync word has
     eight zeros, so the correlation is pinned at 8 < threshold. *)
  let samples =
    Array.make 300 (Fixed.of_float Hcor.sample_format 0.1)
  in
  let h = Hcor.create ~stimulus:(Hcor.sample_stimulus samples) () in
  let sys = h.Hcor.system in
  Cycle_system.run sys 300;
  Alcotest.(check bool) "never locks" true
    (List.for_all (fun (_, v) -> not (Fixed.is_true v)) (hist sys "locked"))

let test_hcor_parameter_validation () =
  (match Hcor.create ~threshold:0 ~stimulus:(fun _ -> None) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted");
  match Hcor.create ~payload_len:0 ~stimulus:(fun _ -> None) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "payload 0 accepted"

(* --- stimuli substrate ----------------------------------------------------- *)

let test_stimuli_sync_word () =
  Alcotest.(check int) "16 bits" 16 (Array.length Dect_stimuli.sync_word);
  (* 0xE98A MSB first *)
  let v =
    Array.fold_left (fun acc b -> (acc lsl 1) lor if b then 1 else 0) 0
      Dect_stimuli.sync_word
  in
  Alcotest.(check int) "0xE98A" 0xE98A v

let test_stimuli_correlate () =
  let bits = Array.append Dect_stimuli.preamble Dect_stimuli.sync_word in
  let scores = Dect_stimuli.correlate bits Dect_stimuli.sync_word in
  Alcotest.(check int) "perfect at the end" 16 scores.(31);
  Alcotest.(check bool) "find_sync" true
    (Dect_stimuli.find_sync bits ~threshold:16 = Some 31)

let test_stimuli_crc () =
  (* CRC-16/XMODEM of ASCII "123456789" (bit-serial MSB first) = 0x31C3. *)
  let bytes = "123456789" in
  let bits =
    Array.init (8 * String.length bytes) (fun i ->
        let byte = Char.code bytes.[i / 8] in
        byte land (0x80 lsr (i mod 8)) <> 0)
  in
  Alcotest.(check int) "xmodem check value" 0x31C3 (Dect_stimuli.crc16 bits)

let test_stimuli_channel_fir () =
  let x = [| 1.0; 0.0; 0.0; -1.0 |] in
  let y = Dect_stimuli.fir [| 0.5; 0.25 |] x in
  Alcotest.(check (float 1e-9)) "y0" 0.5 y.(0);
  Alcotest.(check (float 1e-9)) "y1" 0.25 y.(1);
  Alcotest.(check (float 1e-9)) "y3" (-0.5) y.(3);
  (* channel with identity taps and huge SNR is near-identity *)
  let c = Dect_stimuli.channel ~taps:[| 1.0 |] ~snr_db:80.0 ~seed:3 x in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-2)) "identity" x.(i) v)
    c

(* --- RAM cell --------------------------------------------------------------- *)

let test_ram_cell_semantics () =
  let s8 = Fixed.signed ~width:8 ~frac:0 in
  let k =
    Ram_cell.kernel ~name:"test_ram_sem" ~words:4 ~data_fmt:s8
      ~addr_fmt:(Fixed.unsigned ~width:2 ~frac:0)
  in
  let fire addr wdata we =
    let consumed =
      [
        ("addr", [ Fixed.of_int (Fixed.unsigned ~width:2 ~frac:0) addr ]);
        ("wdata", [ Fixed.of_int s8 wdata ]);
        ("we", [ Fixed.of_bool we ]);
      ]
    in
    let produced = k.Dataflow.Kernel.k_behavior consumed in
    k.Dataflow.Kernel.k_commit ();
    match produced with
    | [ ("rdata", [ v ]) ] -> Fixed.to_int v
    | _ -> Alcotest.fail "shape"
  in
  Alcotest.(check int) "initial zero" 0 (fire 1 42 true);
  Alcotest.(check int) "write visible next" 42 (fire 1 0 false);
  Alcotest.(check int) "other word untouched" 0 (fire 2 0 false);
  Alcotest.(check (option int)) "peek" (Some 42)
    (Option.map Fixed.to_int (Ram_cell.peek ~name:"test_ram_sem" 1));
  k.Dataflow.Kernel.k_reset ();
  Alcotest.(check int) "reset" 0 (fire 1 0 false)

(* --- DECT transceiver -------------------------------------------------------- *)

let dect_setup ?(symbols = 40) ?(seed = 3) () =
  let bits = Dect_stimuli.burst ~seed () in
  let tx = Dect_stimuli.transmit (Array.sub bits 0 symbols) in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.45; -0.2 |] ~snr_db:30.0 ~seed tx in
  let cycles = (symbols + 2) * Dect_transceiver.loop_length in
  let samples = Array.make cycles (Fixed.zero Dect_transceiver.sample_format) in
  Array.iteri
    (fun n v ->
      let c = (Dect_transceiver.loop_length * n) + 1 in
      if c < cycles then
        samples.(c) <-
          Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
            (v /. 2.0))
    rx;
  let d =
    Dect_transceiver.create
      ~stimulus:(Dect_transceiver.sample_stimulus samples)
      ()
  in
  (d, samples, symbols, cycles)

let test_dect_structure () =
  let d, _, _, _ = dect_setup ~symbols:2 () in
  Alcotest.(check int) "22 datapaths" 22
    (List.length d.Dect_transceiver.instruction_counts);
  Alcotest.(check int) "7 RAM cells" 7 (List.length d.Dect_transceiver.ram_names);
  Alcotest.(check int) "program length" 320 d.Dect_transceiver.program_length;
  let counts = List.map snd d.Dect_transceiver.instruction_counts in
  Alcotest.(check int) "min instructions" 2 (List.fold_left min 99 counts);
  Alcotest.(check int) "max instructions" 57 (List.fold_left max 0 counts);
  (* 22 datapaths + VLIW controller + PC controller timed; 7 untimed *)
  let sys = d.Dect_transceiver.system in
  Alcotest.(check int) "24 timed" 24 (List.length (Cycle_system.timed_components sys));
  Alcotest.(check int) "7 untimed" 7
    (List.length (Cycle_system.untimed_components sys));
  Alcotest.(check bool) "interconnect clean" true
    (Cycle_system.check sys = [])

let test_dect_golden_soft_bits_crc () =
  let d, samples, symbols, cycles = dect_setup () in
  let sys = d.Dect_transceiver.system in
  Cycle_system.run sys cycles;
  let golden = Dect_transceiver.golden_reference samples ~symbols in
  let ll = Dect_transceiver.loop_length in
  let soft = hist sys "soft_out" and bits = hist sys "bit_out" in
  let crc = hist sys "crc_probe" in
  for n = 0 to symbols - 3 do
    (match List.assoc_opt ((ll * (n + 1)) + 4) soft with
    | Some v ->
      if not (Fixed.equal v golden.Dect_transceiver.g_soft.(n)) then
        Alcotest.failf "soft[%d] mismatch" n
    | None -> Alcotest.failf "soft[%d] missing" n);
    (match List.assoc_opt ((ll * (n + 1)) + 5) bits with
    | Some v ->
      if Fixed.is_true v <> golden.Dect_transceiver.g_bits.(n) then
        Alcotest.failf "bit[%d] mismatch" n
    | None -> Alcotest.failf "bit[%d] missing" n);
    match List.assoc_opt ((ll * (n + 1)) + 7) crc with
    | Some v ->
      if Fixed.to_int v <> golden.Dect_transceiver.g_crc.(n) then
        Alcotest.failf "crc[%d] mismatch" n
    | None -> Alcotest.failf "crc[%d] missing" n
  done

let test_dect_hold_is_exact_delay () =
  let const_stim _ =
    Some (Fixed.of_float Dect_transceiver.sample_format 0.4)
  in
  let d1 = Dect_transceiver.create ~stimulus:const_stim () in
  let d2 =
    Dect_transceiver.create
      ~hold:(fun c -> c >= 50 && c < 57)
      ~stimulus:const_stim ()
  in
  Cycle_system.run d1.Dect_transceiver.system 250;
  Cycle_system.run d2.Dect_transceiver.system 257;
  List.iter
    (fun probe ->
      let h1 = hist d1.Dect_transceiver.system probe in
      let h2 = hist d2.Dect_transceiver.system probe in
      for c = 100 to 240 do
        let v1 = List.assoc_opt c h1 and v2 = List.assoc_opt (c + 7) h2 in
        match v1, v2 with
        | Some a, Some b ->
          if not (Fixed.equal a b) then
            Alcotest.failf "%s differs at cycle %d" probe c
        | _ -> Alcotest.failf "%s missing token at %d" probe c
      done)
    [ "crc_probe"; "soft_out"; "bit_out"; "frame_probe"; "adapt_probe" ]

let test_dect_pc_freezes_during_hold () =
  let d =
    Dect_transceiver.create
      ~hold:(fun c -> c >= 30 && c < 40)
      ~stimulus:(fun _ -> Some (Fixed.zero Dect_transceiver.sample_format))
      ()
  in
  let sys = d.Dect_transceiver.system in
  Cycle_system.run sys 60;
  let pc = hist sys "pc_probe" in
  let v c = Fixed.to_int (List.assoc c pc) in
  (* hold_request registered: pc counts cycles before the hold, freezes
     shortly after cycle 30, and afterwards lags by the 10-cycle hold. *)
  Alcotest.(check int) "pc counts before hold" 25 (v 25);
  Alcotest.(check bool) "pc frozen" true (v 33 = v 34 && v 34 = v 40);
  Alcotest.(check int) "pc lags by the hold length" 45 (v 55)

let test_dect_engines_agree () =
  let d, _, _, _ = dect_setup ~symbols:8 () in
  Alcotest.(check (list string)) "all engines" []
    (Flow.engines_agree d.Dect_transceiver.system ~cycles:150)

let test_dect_netlist_verify () =
  let d, _, _, _ = dect_setup ~symbols:6 () in
  let r =
    Flow.verify_netlist ~macro_of_kernel:Dect_transceiver.macro_of_kernel
      d.Dect_transceiver.system ~cycles:100
  in
  Alcotest.(check bool) "vectors checked" true (r.Synthesize.vectors_checked > 1000);
  Alcotest.(check int) "no mismatches" 0 (List.length r.Synthesize.mismatches)

let test_dect_gate_count_scale () =
  let d, _, _, _ = dect_setup ~symbols:2 () in
  let _, rep =
    Synthesize.synthesize ~macro_of_kernel:Dect_transceiver.macro_of_kernel
      d.Dect_transceiver.system
  in
  let g = rep.Synthesize.total.Netlist.gate_equivalents in
  (* The paper reports 75 Kgates; the reproduction must be the same
     order of magnitude. *)
  Alcotest.(check bool) "tens of kilogates" true (g > 20_000 && g < 150_000)

(* --- architecture migration -------------------------------------------------- *)

let test_arch_migration_equivalence () =
  let samples =
    Array.init 80 (fun i ->
        Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
          (sin (float i *. 1.1) /. 2.0))
  in
  let chain = Arch_migration.build_chain () in
  let r1, st1 = Arch_migration.run_dataflow chain samples in
  let r2, st2 = Arch_migration.run_central chain samples in
  Alcotest.(check int) "dataflow emitted all" 80
    (List.length r1.Arch_migration.r_bits);
  Alcotest.(check bool) "bits identical" true
    (r1.Arch_migration.r_bits = r2.Arch_migration.r_bits);
  Alcotest.(check bool) "soft identical" true
    (List.for_all2 Fixed.equal r1.Arch_migration.r_soft r2.Arch_migration.r_soft);
  Alcotest.(check bool) "dataflow not deadlocked" false st1.Dataflow.deadlocked;
  Alcotest.(check int) "central ran all cycles" 80 st2.Cycle_system.cycles


let test_dect_hold_under_compiled () =
  (* The fig 2 hold machinery survives compilation: the compiled engine
     and the interpreted scheduler agree on a run with holds. *)
  let d =
    Dect_transceiver.create
      ~hold:(fun c -> (c >= 45 && c < 52) || (c >= 130 && c < 133))
      ~stimulus:(fun c ->
        Some
          (Fixed.of_float ~overflow:Fixed.Saturate
             Dect_transceiver.sample_format
             (cos (float c /. 2.0) /. 2.5)))
      ()
  in
  Alcotest.(check (list string)) "agree with holds" []
    (Flow.engines_agree d.Dect_transceiver.system ~cycles:200)

let test_dect_optimized_netlist () =
  let d, _, _, _ = dect_setup ~symbols:5 () in
  let r =
    Synthesize.verify ~optimize:true
      ~macro_of_kernel:Dect_transceiver.macro_of_kernel
      d.Dect_transceiver.system ~cycles:90
  in
  Alcotest.(check int) "optimized netlist verifies" 0
    (List.length r.Synthesize.mismatches)

let test_dect_one_hot () =
  let d, _, _, _ = dect_setup ~symbols:4 () in
  let options =
    { Synthesize.default_options with
      Synthesize.state_encoding = Synthesize.One_hot }
  in
  let r =
    Synthesize.verify ~options
      ~macro_of_kernel:Dect_transceiver.macro_of_kernel
      d.Dect_transceiver.system ~cycles:70
  in
  Alcotest.(check int) "one-hot DECT verifies" 0
    (List.length r.Synthesize.mismatches)

let test_system_dot () =
  let d, _, _, _ = dect_setup ~symbols:2 () in
  let dot = Cycle_system.to_dot d.Dect_transceiver.system in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dot i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph \"dect\"");
  Alcotest.(check bool) "vliw box" true (contains "\"vliw_ctl\" [shape=box]");
  Alcotest.(check bool) "ram dashed" true (contains "style=dashed");
  Alcotest.(check bool) "instruction bus edge" true (contains "label=\"bank0\"")


let test_dect_golden_under_compiled () =
  (* The compiled engine reproduces the golden equalizer stream too. *)
  let d, samples, symbols, cycles = dect_setup ~symbols:20 ~seed:9 () in
  let sys = d.Dect_transceiver.system in
  let histories = Flow.simulate ~engine:"compiled" sys ~cycles in
  let golden = Dect_transceiver.golden_reference samples ~symbols in
  let ll = Dect_transceiver.loop_length in
  let soft = List.assoc "soft_out" histories in
  for n = 0 to symbols - 3 do
    match List.assoc_opt ((ll * (n + 1)) + 4) soft with
    | Some v ->
      if not (Fixed.equal v golden.Dect_transceiver.g_soft.(n)) then
        Alcotest.failf "compiled soft[%d] mismatch" n
    | None -> Alcotest.failf "compiled soft[%d] missing" n
  done;
  Cycle_system.reset sys

let test_dect_two_bursts_with_hold () =
  (* Two consecutive bursts with a hold between them: the second burst
     decodes exactly as the golden model predicts once the hold shift is
     accounted for. *)
  let symbols = 36 in
  let ll = Dect_transceiver.loop_length in
  let bits = Dect_stimuli.burst ~seed:31 () in
  let tx = Dect_stimuli.transmit (Array.sub bits 0 symbols) in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.45; -0.2 |] ~snr_db:35.0 ~seed:31 tx in
  let hold_start = (ll * 12) + 7 and hold_len = 5 in
  let cycles = ((symbols + 2) * ll) + hold_len in
  (* The sample stream must freeze with the chip during the hold. *)
  let base = Array.make cycles (Fixed.zero Dect_transceiver.sample_format) in
  Array.iteri
    (fun n v ->
      let c = (ll * n) + 1 in
      let c = if c > hold_start then c + hold_len else c in
      if c < cycles then
        base.(c) <-
          Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
            (v /. 2.0))
    rx;
  let d =
    Dect_transceiver.create
      ~hold:(fun c -> c >= hold_start && c < hold_start + hold_len)
      ~stimulus:(Dect_transceiver.sample_stimulus base)
      ()
  in
  let sys = d.Dect_transceiver.system in
  Cycle_system.run sys cycles;
  (* Golden over the unshifted stream. *)
  let unshifted = Array.make cycles (Fixed.zero Dect_transceiver.sample_format) in
  Array.iteri
    (fun n v ->
      let c = (ll * n) + 1 in
      if c < cycles then
        unshifted.(c) <-
          Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
            (v /. 2.0))
    rx;
  let golden = Dect_transceiver.golden_reference unshifted ~symbols in
  let soft = hist sys "soft_out" in
  let check n =
    let c0 = (ll * (n + 1)) + 4 in
    let c = if c0 > hold_start then c0 + hold_len else c0 in
    match List.assoc_opt c soft with
    | Some v ->
      if not (Fixed.equal v golden.Dect_transceiver.g_soft.(n)) then
        Alcotest.failf "soft[%d] after hold mismatch" n
    | None -> Alcotest.failf "soft[%d] missing" n
  in
  (* Symbols comfortably before and after the hold. *)
  List.iter check [ 2; 5; 8; 20; 25; 30 ]


let test_dect_scrambler_golden () =
  (* The descrambler LFSR (x^7 + x^4 + 1, seed 0x5B, re-seeded at every
     program pass) replicated bit-exactly in software. *)
  let d, samples, symbols, cycles = dect_setup ~symbols:30 ~seed:12 () in
  let sys = d.Dect_transceiver.system in
  Cycle_system.run sys cycles;
  let golden = Dect_transceiver.golden_reference samples ~symbols in
  let ll = Dect_transceiver.loop_length in
  let sbits = hist sys "scram_out" in
  let lfsr = ref 0x5B in
  let step_lfsr () =
    let b6 = (!lfsr lsr 6) land 1 and b3 = (!lfsr lsr 3) land 1 in
    lfsr := ((!lfsr lsl 1) land 0x7F) lor (b6 lxor b3)
  in
  (* Pipeline fill: loop 0's STEP consumes the slice of the still-zero
     sum register, advancing the LFSR once before bit[0]. *)
  step_lfsr ();
  for n = 0 to symbols - 3 do
    (* INIT lands before the STEP that processes bit (16p - 1). *)
    if (n + 1) mod 16 = 0 then lfsr := 0x5B;
    let b6 = (!lfsr lsr 6) land 1 in
    let expected = (if golden.Dect_transceiver.g_bits.(n) then 1 else 0) lxor b6 in
    step_lfsr ();
    (* STEP of loop n+1 processes bit[n]; visible one cycle later. *)
    match List.assoc_opt ((ll * (n + 1)) + 8) sbits with
    | Some v ->
      if Fixed.to_int v <> expected then
        Alcotest.failf "scrambler bit %d: got %d expected %d" n (Fixed.to_int v)
          expected
    | None -> Alcotest.failf "scrambler bit %d missing" n
  done

let suite =
  [
    Alcotest.test_case "HCOR finds sync at golden position" `Quick
      test_hcor_finds_sync;
    Alcotest.test_case "HCOR recovers the payload" `Quick test_hcor_payload_bits;
    Alcotest.test_case "HCOR re-locks on a second burst" `Quick test_hcor_relocks;
    Alcotest.test_case "HCOR rejects noise" `Quick test_hcor_no_false_lock_on_noise;
    Alcotest.test_case "HCOR parameter validation" `Quick
      test_hcor_parameter_validation;
    Alcotest.test_case "stimuli: sync word" `Quick test_stimuli_sync_word;
    Alcotest.test_case "stimuli: correlation" `Quick test_stimuli_correlate;
    Alcotest.test_case "stimuli: crc16 check value" `Quick test_stimuli_crc;
    Alcotest.test_case "stimuli: channel and fir" `Quick test_stimuli_channel_fir;
    Alcotest.test_case "RAM cell semantics" `Quick test_ram_cell_semantics;
    Alcotest.test_case "DECT structure (fig 5)" `Quick test_dect_structure;
    Alcotest.test_case "DECT matches golden (soft/bits/crc)" `Quick
      test_dect_golden_soft_bits_crc;
    Alcotest.test_case "DECT hold = exact delay (fig 2)" `Quick
      test_dect_hold_is_exact_delay;
    Alcotest.test_case "DECT pc freezes during hold" `Quick
      test_dect_pc_freezes_during_hold;
    Alcotest.test_case "DECT engines agree" `Slow test_dect_engines_agree;
    Alcotest.test_case "DECT netlist verifies" `Slow test_dect_netlist_verify;
    Alcotest.test_case "DECT gate-count scale" `Slow test_dect_gate_count_scale;
    Alcotest.test_case "architecture migration" `Quick
      test_arch_migration_equivalence;
    Alcotest.test_case "DECT hold under compiled engine" `Slow
      test_dect_hold_under_compiled;
    Alcotest.test_case "DECT optimized netlist verifies" `Slow
      test_dect_optimized_netlist;
    Alcotest.test_case "DECT one-hot controller verifies" `Slow
      test_dect_one_hot;
    Alcotest.test_case "system dot export" `Quick test_system_dot;
    Alcotest.test_case "DECT golden under compiled engine" `Slow
      test_dect_golden_under_compiled;
    Alcotest.test_case "DECT two bursts around a hold" `Slow
      test_dect_two_bursts_with_hold;
    Alcotest.test_case "DECT scrambler golden" `Quick test_dect_scrambler_golden;
  ]
