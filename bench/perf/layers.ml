(* The per-layer metrics.  Every traced run reports all of them; a
   layer the workload does not reach reports 0.  bench/perf/README.md
   says which end-to-end metric each should move, on which workload. *)

open Common

let per_design ?(only = designs) prefix unit_ better =
  List.map (fun d -> (prefix ^ "." ^ d, unit_, better)) only

let per_cell ?only ?(engines = engines) prefix unit_ better =
  List.concat_map (fun e -> per_design ?only (prefix ^ "." ^ e) unit_ better) engines

(* (name, unit, better) *)
let declared =
  List.concat
    [
      per_design "designs.build_ms" "ms" "lower";
      per_design "sched.digest_ms" "ms" "lower";
      per_cell "engine.make_ms" "ms" "lower";
      per_cell "engine.step_ns" "ns" "lower";
      per_cell "engine.histories_ms" "ms" "lower";
      per_design "native.compile_ms" "ms" "lower";
      per_design "native.load_ms" "ms" "lower";
      [ ("native.compiles", "count", "lower"); ("native.fallbacks", "count", "lower") ];
      per_design "synth.synthesize_ms" "ms" "lower";
      [ ("synth.netopt_ms.hcor", "ms", "lower") ];
      per_design "fault.stuck_at.fault_ms" "ms" "lower";
      per_cell ~only:Campaign.seu_designs ~engines:Campaign.seu_engines "fault.seu.run_us" "us"
        "lower";
      per_design ~only:Campaign.seu_designs "parallel.seu_speedup_d2" "ratio" "higher";
      [
        ("proc.peak_rss_mb", "MB", "lower");
        ("trace.overhead_frac", "ratio", "lower");
        ("trace.accounted_frac", "ratio", "higher");
      ];
    ]

(* Span name -> metric prefix and how its spans reduce to a value; the
   metric is [prefix ^ "." ^ span key]. *)
let from_spans =
  [
    ("designs.build", "designs.build_ms", `Median_ms);
    ("sched.digest", "sched.digest_ms", `Median_ms);
    ("engine.make", "engine.make_ms", `Median_ms);
    ("engine.step", "engine.step_ns", `Ns_per_work);
    ("engine.histories", "engine.histories_ms", `Median_ms);
    ("native.compile", "native.compile_ms", `Median_ms);
    ("native.load", "native.load_ms", `Median_ms);
    ("synth.synthesize", "synth.synthesize_ms", `Median_ms);
    ("ir.optimize_gates", "synth.netopt_ms", `Median_ms);
  ]

let derive_from_spans () =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun ((s : Recorder.span), self) ->
      add_sample groups (s.name, s.key) (self, s.work))
    (Recorder.self_times ());
  List.iter
    (fun (span_name, prefix, reduce) ->
      Hashtbl.iter
        (fun (name, key) samples ->
          if name = span_name then
            set_layer (prefix ^ "." ^ key)
              (match reduce with
              | `Median_ms -> 1e3 *. Stats.median (List.map fst samples)
              | `Ns_per_work ->
                let self = List.fold_left (fun a (s, _) -> a +. s) 0.0 samples in
                let work = List.fold_left (fun a (_, w) -> a + w) 0 samples in
                1e9 *. self /. float_of_int (max 1 work)))
        groups)
    from_spans

(* Layer spans' self time inside the timed samples, as a share of the
   time the samples took: close to 1 when the layer spans account for
   what the end-to-end metrics measure. *)
let accounted_frac () =
  let all = Recorder.self_times () in
  let by_id = Hashtbl.create 256 in
  List.iter (fun ((s : Recorder.span), _) -> Hashtbl.replace by_id s.id s) all;
  let rec in_sample (s : Recorder.span) =
    match Hashtbl.find_opt by_id s.parent with
    | None -> false
    | Some p -> p.name = "sample" || in_sample p
  in
  let layers, samples =
    List.fold_left
      (fun (layers, samples) ((s : Recorder.span), self) ->
        if s.name = "sample" then (layers, samples +. (s.t1 -. s.t0))
        else if (not s.harness) && in_sample s then (layers +. self, samples)
        else (layers, samples))
      (0.0, 0.0) all
  in
  layers /. samples

(* Peak resident set size of this process, in MB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.0
          | l -> (
            try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
            with Scanf.Scan_failure _ | End_of_file -> scan ())
        in
        scan ())

let values () =
  List.map
    (fun (name, unit_, _) ->
      let v = Option.value ~default:0.0 (Hashtbl.find_opt layer_values name) in
      (name, unit_, if Float.is_finite v then v else 0.0))
    declared
