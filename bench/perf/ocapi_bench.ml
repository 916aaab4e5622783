(* The benchmark of the ocapi environment (see bench/perf/README.md).

     bench/perf/run.sh --workload W --seed N [--seconds S] [--trace 0|1]
                       [--out FILE]
     ocapi_bench.exe --compare A.jsonl B.jsonl
     ocapi_bench.exe --smoke BENCHMARK.json

   A run prints every metric by name and unit, then one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones. *)

open Common

let workloads = [ ("table1", Table1.run); ("campaign", Campaign.run) ]

(* ---- metrics --------------------------------------------------------------- *)

let end_to_end r =
  ("setup_s", "s", r.setup_s)
  :: List.map
       (fun (e, v) -> (e ^ "_cycles_per_s", "1/s", if Float.is_finite v then v else 0.0))
       r.rates

(* The traced run: an untraced pass, then the same work with spans on;
   each pass takes half the rounds, so the run lasts as long as an
   untraced one.  The per-layer metrics come from the spans, and the
   tracing overhead from the two passes' timed samples. *)
let traced_run ~run ~seed ~scale =
  let half = scale /. 2.0 in
  let plain = run ~seed ~scale:half ~traced:false in
  let compiles0 = (Ocapi_native.stats ()).Ocapi_native.compiles in
  Recorder.on := true;
  let traced = run ~seed ~scale:half ~traced:true in
  Recorder.on := false;
  Layers.derive_from_spans ();
  let native = Ocapi_native.stats () in
  set_layer "native.compiles" (float_of_int (native.Ocapi_native.compiles - compiles0));
  set_layer "native.fallbacks" (float_of_int native.Ocapi_native.fallbacks);
  set_layer "trace.overhead_frac" ((traced.timed_s /. plain.timed_s) -. 1.0);
  set_layer "trace.accounted_frac" (Layers.accounted_frac ());
  set_layer "proc.peak_rss_mb" (Layers.peak_rss_mb ());
  Layers.values ()

let print_metrics metrics =
  List.iter (fun (n, u, v) -> Printf.printf "%-34s %18.6f %s\n" n v u) metrics

let result_json metrics =
  Json.Obj
    [
      ("correct", Json.Bool (n_failed () = 0));
      ("attempted", Json.Int (n_attempted ()));
      ("failed", Json.Int (n_failed ()));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             metrics) );
    ]

(* ---- modes ------------------------------------------------------------------ *)

let run_workload ~name ~seed ~seconds ~trace ~out =
  let run = List.assoc name workloads in
  init ~workload:name;
  let scale = seconds /. nominal_seconds in
  let metrics =
    if trace then begin
      let layers = traced_run ~run ~seed ~scale in
      mkdir_p out_dir;
      Recorder.write_chrome ~path:(Filename.concat out_dir (name ^ ".trace.json"));
      layers
    end
    else end_to_end (run ~seed ~scale ~traced:false)
  in
  write_observed ~workload:name;
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" name seed seconds
    (if trace then 1 else 0);
  Printf.printf "ops %d  ops_failed %d\n" (n_attempted ()) (n_failed ());
  print_metrics metrics;
  let json = result_json metrics in
  print_endline (Json.to_string json);
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String name);
                ("seed", Json.Int seed);
                ("seconds", Json.Float seconds);
                ("trace", Json.Int (if trace then 1 else 0));
                ("result", json);
              ]));
      output_char oc '\n';
      close_out oc)
    out;
  if n_failed () = 0 then 0 else 1

(* The name-agreement test: each workload runs one traced round, so
   both metric sets are printed and every correctness
   check runs; the printed names and units must equal the ones
   BENCHMARK.json declares.  Without the native engine the workloads
   cannot run, and the names they would print are checked instead: the
   benchmark runs themselves still refuse to run without it. *)
let smoke spec_path =
  match Spec.load spec_path with
  | Error e ->
    prerr_endline e;
    1
  | Ok spec ->
    init ~workload:"smoke";
    (* BENCHMARK.json sits at the checkout root. *)
    expected_path := Filename.concat (Filename.dirname spec_path) expected_file;
    let pairs l = List.map (fun (n, u, _) -> (n, u)) l in
    let names_of r = pairs (end_to_end r) in
    let printed_e2e, printed_layers =
      match Ocapi_native.availability () with
      | Error e ->
        Printf.printf "workloads not run, native engine unavailable: %s\n"
          (Ocapi_error.to_string e);
        ( names_of
            { setup_s = 0.0; rates = List.map (fun e -> (e, 0.0)) engines; timed_s = 0.0 },
          pairs Layers.declared )
      | Ok () ->
        Recorder.on := true;
        List.fold_left
          (fun _ (name, run) ->
            let r = run ~seed:1 ~scale:0.0 ~traced:true in
            Layers.derive_from_spans ();
            let layers = Layers.values () in
            Printf.printf "workload %s (smoke)\n" name;
            print_metrics (end_to_end r);
            print_metrics layers;
            (names_of r, pairs layers))
          ([], []) workloads
    in
    let declared = List.map (fun (m : Spec.metric) -> (m.name, m.unit_)) in
    let same what a b =
      let a = List.sort compare a and b = List.sort compare b in
      if a <> b then begin
        let missing = List.filter (fun x -> not (List.mem x a)) b
        and extra = List.filter (fun x -> not (List.mem x b)) a in
        List.iter (fun (n, u) -> Printf.eprintf "%s: declared but not printed: %s (%s)\n" what n u) missing;
        List.iter (fun (n, u) -> Printf.eprintf "%s: printed but not declared: %s (%s)\n" what n u) extra;
        false
      end
      else true
    in
    let ok_e2e = same "end_to_end" printed_e2e (declared spec.end_to_end) in
    let ok_layers = same "per_layer" printed_layers (declared spec.per_layer) in
    let ok_workloads =
      List.sort compare spec.workloads = List.sort compare (List.map fst workloads)
    in
    if not ok_workloads then prerr_endline "workloads: BENCHMARK.json and the bench disagree";
    Printf.printf "ops %d  ops_failed %d\n" (n_attempted ()) (n_failed ());
    if ok_e2e && ok_layers && ok_workloads && n_failed () = 0 then 0 else 1

let usage () =
  prerr_endline
    "usage: ocapi_bench.exe --workload (table1|campaign) --seed N [--seconds S] \
     [--trace 0|1] [--out FILE]\n\
    \       ocapi_bench.exe --compare A.jsonl B.jsonl\n\
    \       ocapi_bench.exe --smoke BENCHMARK.json";
  2

let compare_runs a b =
  match Result.bind (Spec.load "BENCHMARK.json") (fun spec -> Spec.compare ~spec a b) with
  | Ok true -> 0
  | Ok false -> 1
  | Error e ->
    prerr_endline e;
    2

(* [--workload W --seed N --seconds S --trace T --out F]; a bare
   [--trace] means [--trace 1]. *)
let workload_run args =
  let rec parse acc = function
    | "--trace" :: (("0" | "1") as v) :: rest -> parse (("--trace", v) :: acc) rest
    | "--trace" :: rest -> parse (("--trace", "1") :: acc) rest
    | (("--workload" | "--seed" | "--seconds" | "--out") as flag) :: v :: rest ->
      parse ((flag, v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  match parse [] args with
  | None -> usage ()
  | Some opts -> (
    let arg k = List.assoc_opt k opts in
    let number k conv default =
      match arg k with None -> Some default | Some v -> conv v
    in
    match
      ( arg "--workload",
        number "--seed" int_of_string_opt 1,
        number "--seconds" float_of_string_opt nominal_seconds )
    with
    | Some name, Some seed, Some seconds when List.mem_assoc name workloads && seconds > 0.0 ->
      run_workload ~name ~seed ~seconds ~trace:(arg "--trace" = Some "1") ~out:(arg "--out")
    | _ -> usage ())

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | [ "--compare"; a; b ] -> compare_runs a b
      | [ "--smoke"; spec ] -> smoke spec
      | args -> workload_run args
    with Unavailable (code, message) ->
      prerr_endline
        (Json.to_string
           (Json.Obj
              [
                ( "error",
                  Json.Obj [ ("code", Json.String code); ("message", Json.String message) ] );
              ]));
      2
  in
  exit code
