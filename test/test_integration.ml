(* Cross-layer integration: the Flow facade, the Metrics harness, and
   the full Table 1 engine set exercised on HCOR. *)

let hcor () =
  let bits = Dect_stimuli.burst ~seed:19 () in
  let tx = Dect_stimuli.transmit bits in
  let rx = Dect_stimuli.channel ~taps:[| 1.0; 0.1 |] ~snr_db:30.0 ~seed:19 tx in
  let samples =
    Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
  in
  (Hcor.create ~stimulus:(Hcor.sample_stimulus samples) ()).Hcor.system

let test_flow_check_clean () =
  let sys = hcor () in
  let report = Flow.check sys in
  if not (Flow.check_clean report) then
    Alcotest.failf "HCOR check not clean: %s"
      (Format.asprintf "%a" Flow.pp_check_report report)

let test_engines_agree_on_hcor () =
  let sys = hcor () in
  Alcotest.(check (list string)) "agree" [] (Flow.engines_agree sys ~cycles:120)

let test_metrics_all_engines () =
  let cycles = 150 in
  let ms =
    List.map
      (fun e -> Metrics.measure ~ocaml_source_lines:140 hcor e ~cycles)
      Metrics.all_engines
  in
  List.iter
    (fun m ->
      Alcotest.(check int) "cycles" cycles m.Metrics.m_cycles;
      Alcotest.(check bool)
        (Metrics.engine_label m.Metrics.m_engine ^ " speed positive")
        true
        (m.Metrics.m_cycles_per_second > 0.);
      Alcotest.(check bool) "source lines recorded" true (m.Metrics.m_source_lines > 0))
    ms;
  (* The paper's ordering claims (C2): compiled is the fastest of the
     software engines and the gate-level netlist is the slowest. *)
  let speed e =
    let m = List.find (fun m -> m.Metrics.m_engine = e) ms in
    m.Metrics.m_cycles_per_second
  in
  Alcotest.(check bool) "compiled > interpreted" true
    (speed Metrics.Compiled_code > speed Metrics.Interpreted_objects);
  Alcotest.(check bool) "interpreted > netlist" true
    (speed Metrics.Interpreted_objects > speed Metrics.Gate_netlist);
  Alcotest.(check bool) "compiled > rtl" true
    (speed Metrics.Compiled_code > speed Metrics.Rt_event_driven);
  (* C1: the OCaml capture is several times smaller than generated VHDL. *)
  let lines e =
    (List.find (fun m -> m.Metrics.m_engine = e) ms).Metrics.m_source_lines
  in
  Alcotest.(check bool) "capture smaller than RT VHDL" true
    (lines Metrics.Rt_event_driven > 2 * 140)

(* Table 1's process column counts an engine's own state, neither the
   stimulus columns nor the probe trace, which grow with the run: a
   long row reads as a short one.  (The RT elaboration takes every
   SFG's plan when it is made, so its row is flat from the first
   cycles too.) *)
let test_process_bytes_exclude_columns () =
  let bytes engine ~cycles = (Metrics.measure hcor engine ~cycles).Metrics.m_process_bytes in
  List.iter
    (fun (engine, short, long) ->
      Alcotest.(check int) (Metrics.engine_label engine) (bytes engine ~cycles:short)
        (bytes engine ~cycles:long))
    [
      (Metrics.Interpreted_objects, 50, 5_000);
      (Metrics.Compiled_code, 50, 20_000);
      (Metrics.Rt_event_driven, 50, 5_000);
    ]

(* Each row is measured on its own build of the design, so a row does
   not count what the rows before it built: every row reads the same
   measured first or after all the others. *)
let test_process_bytes_independent_of_order () =
  let bytes engine = (Metrics.measure hcor engine ~cycles:50).Metrics.m_process_bytes in
  List.iter
    (fun engine ->
      let first = bytes engine in
      List.iter (fun other -> if other <> engine then ignore (bytes other)) Metrics.all_engines;
      Alcotest.(check int) (Metrics.engine_label engine) first (bytes engine))
    Metrics.all_engines

let test_metrics_table_rendering () =
  let m = Metrics.measure ~ocaml_source_lines:100 hcor Metrics.Interpreted_objects ~cycles:50 in
  let text = Format.asprintf "%a" (fun ppf -> Metrics.pp_table ppf ~design:"HCOR" ~gates:7000) [ m ] in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has design" true (contains "HCOR");
  Alcotest.(check bool) "has engine label" true (contains "interpreted obj");
  Alcotest.(check bool) "has size" true (contains "7K")

(* Table 1's "Src lines" of each gallery design is its source's line
   count, whatever the working directory.  The sources are this suite's
   dune dependencies, beside the test executable's directory. *)
let test_gallery_source_lines () =
  let designs =
    Filename.concat (Filename.dirname Sys.executable_name) "../lib/designs"
  in
  let lines file =
    In_channel.with_open_bin (Filename.concat designs file) (fun ic ->
        List.length (In_channel.input_lines ic))
  in
  let expected =
    List.map
      (fun (file, count) -> (file, lines file, count))
      [
        ("hcor.ml", Hcor.source_lines);
        ("dect_transceiver.ml", Dect_transceiver.source_lines);
        ("rs_codec.ml", Rs_codec.source_lines);
        ("acc_cpu.ml", Acc_cpu.source_lines);
      ]
  in
  let cwd = Sys.getcwd () in
  Temp_dir.with_dir "ocapi_src_lines" (fun dir ->
      Sys.chdir dir;
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          List.iter
            (fun (file, n, count) -> Alcotest.(check int) file n (count ()))
            expected))

let suite =
  [
    Alcotest.test_case "flow check clean on HCOR" `Quick test_flow_check_clean;
    Alcotest.test_case "engines agree on HCOR" `Quick test_engines_agree_on_hcor;
    Alcotest.test_case "metrics across all engines" `Slow test_metrics_all_engines;
    Alcotest.test_case "process bytes exclude stimulus columns" `Quick
      test_process_bytes_exclude_columns;
    Alcotest.test_case "process bytes independent of row order" `Quick
      test_process_bytes_independent_of_order;
    Alcotest.test_case "metrics table rendering" `Quick test_metrics_table_rendering;
    Alcotest.test_case "gallery source lines in any directory" `Quick
      test_gallery_source_lines;
  ]
