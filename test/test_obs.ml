(* Tests for the Ocapi_obs telemetry library: deterministic counter and
   histogram semantics, Chrome trace-event JSON well-formedness, and the
   guarantee that instrumentation never changes simulation results. *)

let s8 = Fixed.signed ~width:8 ~frac:0

(* A minimal JSON well-formedness checker (recursive descent over the
   grammar); the repo deliberately has no JSON dependency, so the
   emitter is validated against an independent reading of the spec. *)
let json_well_formed text =
  let n = String.length text in
  let pos = ref 0 in
  let fail = ref false in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos else fail := true
  in
  let literal s =
    let l = String.length s in
    if !pos + l <= n && String.sub text !pos l = s then pos := !pos + l
    else fail := true
  in
  let string_ () =
    expect '"';
    let closed = ref false in
    while (not !closed) && (not !fail) && !pos < n do
      match text.[!pos] with
      | '"' ->
        incr pos;
        closed := true
      | '\\' ->
        incr pos;
        if !pos >= n then fail := true
        else (
          (match text.[!pos] with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
          | 'u' ->
            for _ = 1 to 4 do
              incr pos;
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
              | _ -> fail := true
            done
          | _ -> fail := true);
          incr pos)
      | c when Char.code c < 0x20 -> fail := true
      | _ -> incr pos
    done;
    if not !closed then fail := true
  in
  let number () =
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while !pos < n && is_num text.[!pos] do
      incr pos
    done;
    if !pos = start then fail := true
    else
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some _ -> ()
      | None -> fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      (match peek () with
      | Some '"' -> string_ ()
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let continue = ref true in
          while !continue && not !fail do
            skip_ws ();
            string_ ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
              incr pos;
              continue := false
            | _ ->
              fail := true;
              continue := false
          done
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let continue = ref true in
          while !continue && not !fail do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
              incr pos;
              continue := false
            | _ ->
              fail := true;
              continue := false
          done
        end
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some _ -> number ()
      | None -> fail := true)
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* A small self-contained design: an accumulator over a ramp input. *)
let mini_system () =
  let clk = Clock.default in
  let acc = Signal.Reg.create clk "obs_acc" s8 in
  let sfg =
    Sfg.build "obs_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y"
          (Signal.resize s8 Signal.(reg_q acc +: x));
        Sfg.Builder.assign_resized b acc Signal.(reg_q acc +: x))
  in
  let fsm = Fsm.create "obs_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "obs_mini" in
  let t = Cycle_system.add_timed sys "comp" fsm in
  let inp =
    Cycle_system.add_input sys "x" s8 (fun c -> Some (Fixed.of_int s8 (c mod 5)))
  in
  let out = Cycle_system.add_output sys "y" in
  ignore (Cycle_system.connect sys (inp, "out") [ (t, "x") ]);
  ignore (Cycle_system.connect sys (t, "y") [ (out, "in") ]);
  sys

let test_counters () =
  Ocapi_obs.reset ();
  Ocapi_obs.count "t.a";
  Alcotest.(check (list (pair string string)))
    "disabled counting is a no-op" []
    (List.map
       (fun (k, _) -> (k, ""))
       (Ocapi_obs.snapshot ()));
  Ocapi_obs.enable ();
  Ocapi_obs.count "t.a";
  Ocapi_obs.count "t.a";
  Ocapi_obs.count ~n:40 "t.a";
  Ocapi_obs.count "t.b";
  Ocapi_obs.set_gauge "t.g" 2.5;
  Ocapi_obs.max_gauge "t.g" 7.0;
  Ocapi_obs.max_gauge "t.g" 3.0;
  let snap = Ocapi_obs.snapshot () in
  (match List.assoc "t.a" snap with
  | Ocapi_obs.Counter_v v -> Alcotest.(check int) "t.a" 42 v
  | _ -> Alcotest.fail "t.a not a counter");
  (match List.assoc "t.b" snap with
  | Ocapi_obs.Counter_v v -> Alcotest.(check int) "t.b" 1 v
  | _ -> Alcotest.fail "t.b not a counter");
  (match List.assoc "t.g" snap with
  | Ocapi_obs.Gauge_v v -> Alcotest.(check (float 0.0)) "t.g keeps max" 7.0 v
  | _ -> Alcotest.fail "t.g not a gauge");
  (* snapshot is sorted by name: deterministic output. *)
  Alcotest.(check (list string))
    "sorted keys" [ "t.a"; "t.b"; "t.g" ]
    (List.map fst snap);
  Ocapi_obs.reset ()

let test_histogram () =
  Ocapi_obs.reset ();
  Ocapi_obs.enable ();
  let buckets = [| 1.0; 10.0; 100.0 |] in
  List.iter
    (fun v -> Ocapi_obs.observe ~buckets "t.h" v)
    [ 0.5; 1.0; 5.0; 50.0; 5000.0 ];
  (match List.assoc "t.h" (Ocapi_obs.snapshot ()) with
  | Ocapi_obs.Histogram_v h ->
    Alcotest.(check int) "count" 5 h.Ocapi_obs.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 5056.5 h.Ocapi_obs.hs_sum;
    Alcotest.(check (float 0.0)) "min" 0.5 h.Ocapi_obs.hs_min;
    Alcotest.(check (float 0.0)) "max" 5000.0 h.Ocapi_obs.hs_max;
    (* cumulative "<=" buckets, plus an overflow bucket at +inf *)
    Alcotest.(check (list int))
      "bucket counts" [ 2; 1; 1; 1 ]
      (List.map snd h.Ocapi_obs.hs_buckets)
  | _ -> Alcotest.fail "t.h not a histogram");
  Ocapi_obs.reset ()

let test_trace_json () =
  Ocapi_obs.reset ();
  Ocapi_obs.enable ();
  let t0 = Ocapi_obs.span_begin () in
  Ocapi_obs.span_end ~cat:"test"
    ~args:[ ("tricky \"name\"\n", Ocapi_obs.Json.String "a\\b\twith\x01ctrl") ]
    "outer" t0;
  Ocapi_obs.with_span "inner" (fun () -> ());
  Ocapi_obs.instant "marker";
  Alcotest.(check int) "three events" 3 (Ocapi_obs.event_count ());
  let text = Ocapi_obs.trace_json () in
  Alcotest.(check bool) "trace json well-formed" true (json_well_formed text);
  let metrics = Ocapi_obs.Json.to_string (Ocapi_obs.metrics_json ()) in
  Alcotest.(check bool) "metrics json well-formed" true
    (json_well_formed metrics);
  (* Non-finite floats must not leak bare nan/inf tokens into JSON. *)
  let weird =
    Ocapi_obs.Json.to_string
      (Ocapi_obs.Json.List
         [ Ocapi_obs.Json.Float Float.nan; Ocapi_obs.Json.Float infinity ])
  in
  Alcotest.(check string) "non-finite floats are null" "[null,null]" weird;
  Ocapi_obs.clear_trace ();
  Alcotest.(check int) "cleared" 0 (Ocapi_obs.event_count ());
  Ocapi_obs.reset ()

let test_disabled_spans_are_free () =
  Ocapi_obs.reset ();
  let t0 = Ocapi_obs.span_begin () in
  Ocapi_obs.span_end "never" t0;
  Ocapi_obs.instant "never";
  Alcotest.(check int) "no events recorded" 0 (Ocapi_obs.event_count ());
  Alcotest.(check bool) "span_begin is nan when disabled" true
    (Float.is_nan t0)

let histories_equal = Alcotest.(check bool) "histories equal" true

let test_instrumented_equals_plain () =
  let sys = mini_system () in
  let cycles = 40 in
  let plain_i = Flow.simulate sys ~cycles in
  let plain_c = Flow.simulate ~engine:"compiled" sys ~cycles in
  let plain_r = Flow.simulate ~engine:"rtl" sys ~cycles in
  let instrumented engine =
    Ocapi_obs.run_with_telemetry ~label:("simulate." ^ engine) (fun () ->
        Flow.simulate ~engine sys ~cycles)
  in
  let tele_i, rp = instrumented "interp" in
  (match List.assoc_opt "sched.cycles" rp.Ocapi_obs.rp_metrics with
  | Some (Ocapi_obs.Counter_v n) -> Alcotest.(check int) "cycles" cycles n
  | _ -> Alcotest.fail "sched.cycles missing");
  let tele_c, rp = instrumented "compiled" in
  (match List.assoc_opt "compiled.steps" rp.Ocapi_obs.rp_metrics with
  | Some (Ocapi_obs.Counter_v n) -> Alcotest.(check int) "steps" cycles n
  | _ -> Alcotest.fail "compiled.steps missing");
  let tele_r, _ = instrumented "rtl" in
  histories_equal (Flow.first_history_mismatch plain_i tele_i = None);
  histories_equal (Flow.first_history_mismatch plain_c tele_c = None);
  histories_equal (Flow.first_history_mismatch plain_r tele_r = None);
  (* Telemetry scope is popped: back to disabled. *)
  Alcotest.(check bool) "disabled after scope" false (Ocapi_obs.enabled ());
  Ocapi_obs.reset ()

let test_first_history_mismatch () =
  let h v = [ (0, Fixed.of_int s8 1); (1, Fixed.of_int s8 v) ] in
  Alcotest.(check bool)
    "equal histories" true
    (Flow.first_history_mismatch [ ("p", h 2) ] [ ("p", h 2) ] = None);
  (match Flow.first_history_mismatch [ ("p", h 2) ] [ ("p", h 3) ] with
  | Some (probe, Some cyc, _) ->
    Alcotest.(check string) "probe" "p" probe;
    Alcotest.(check int) "cycle" 1 cyc
  | _ -> Alcotest.fail "expected a value mismatch");
  (match
     Flow.first_history_mismatch
       [ ("p", h 2) ]
       [ ("p", [ (0, Fixed.of_int s8 1) ]) ]
   with
  | Some (_, Some 1, _) -> ()
  | _ -> Alcotest.fail "expected a truncated-history mismatch");
  let sys = mini_system () in
  Alcotest.(check (list string))
    "engines agree on mini design" []
    (Flow.engines_agree sys ~cycles:30)

let test_vcd_leaves_simulation () =
  let sys = mini_system () in
  let reference = Flow.simulate sys ~cycles:20 in
  let text = Vcd.record sys ~cycles:20 in
  Alcotest.(check bool) "has header" true
    (String.length text > 0 && String.sub text 0 8 = "$comment");
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "declares wires" true (has "$var wire");
  Alcotest.(check bool) "has value changes" true (has "#0\n");
  (* Recording a VCD must not corrupt subsequent simulation. *)
  Alcotest.(check bool) "simulation unchanged after vcd" true
    (Flow.first_history_mismatch reference (Flow.simulate sys ~cycles:20) = None)

let test_run_with_telemetry_report () =
  Ocapi_obs.reset ();
  let result, report =
    Ocapi_obs.run_with_telemetry ~label:"unit" (fun () ->
        Ocapi_obs.count ~n:3 "t.x";
        Ocapi_obs.with_span "work" (fun () -> 17))
  in
  Alcotest.(check int) "result passes through" 17 result;
  Alcotest.(check string) "label" "unit" report.Ocapi_obs.rp_label;
  Alcotest.(check bool) "wall time non-negative" true
    (report.Ocapi_obs.rp_seconds >= 0.0);
  Alcotest.(check int) "one span" 1 report.Ocapi_obs.rp_events;
  let json = Ocapi_obs.Json.to_string (Ocapi_obs.report_json report) in
  Alcotest.(check bool) "report json well-formed" true (json_well_formed json);
  Ocapi_obs.reset ()

(* The parser is the read half of the Json module: everything the
   emitter writes must come back structurally identical, and junk must
   be a structured [Error], never an exception. *)
let test_json_of_string_roundtrip () =
  let open Ocapi_obs.Json in
  let v =
    Obj
      [
        ("a", Int 1);
        ("b", List [ Null; Bool true; Bool false; Float 1.5; Int (-3) ]);
        ("s", String "quote \" slash \\ control \n\t end");
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  (match of_string (to_string v) with
  | Ok v' -> Alcotest.(check string) "round trip" (to_string v) (to_string v')
  | Error e -> Alcotest.fail ("emitter output rejected: " ^ e));
  (match of_string "  { \"x\" : [ 1 , 2.25 ] }  " with
  | Ok v' ->
    Alcotest.(check string) "whitespace tolerated" {|{"x":[1,2.25]}|}
      (to_string v')
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* Error paths the round-trip test can't reach: truncation at every
   prefix, malformed escapes, duplicate object keys, and the
   recursion-depth cap — each must be a structured [Error], never an
   exception or a silent acceptance. *)
let test_json_error_paths () =
  let open Ocapi_obs.Json in
  let expect_error what s =
    match of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%s: accepted %S" what s)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error message non-empty" what)
        true
        (String.length e > 0)
  in
  (* The document opens with [{], so every strict prefix is
     unterminated and must be rejected. *)
  let doc = {|{"a":[1,true,"x\n"],"b":{"c":null}}|} in
  for n = 1 to String.length doc - 1 do
    expect_error "truncated" (String.sub doc 0 n)
  done;
  List.iter (expect_error "bad escape")
    [ {|"\q"|}; {|"\u12"|}; {|"\u12zx"|}; {|"a\|} ];
  expect_error "duplicate key" {|{"a":1,"a":2}|};
  expect_error "nested duplicate key" {|{"x":{"k":1,"k":1}}|};
  let deep n =
    String.concat "" [ String.make n '['; "1"; String.make n ']' ]
  in
  (match of_string (deep 200) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("depth 200 wrongly rejected: " ^ e));
  expect_error "nesting beyond the 255 cap" (deep 300)

(* Floats must print in the shortest form that parses back to the same
   bits — the ledger and event logs are diffed and deduplicated by
   byte equality, so the rendering has to be canonical. *)
let test_json_float_bytes () =
  let open Ocapi_obs.Json in
  List.iter
    (fun f ->
      let s = to_string (Float f) in
      Alcotest.(check bool)
        (Printf.sprintf "%s parses back exactly" s)
        true
        (float_of_string s = f))
    [ 0.1; 1.0 /. 3.0; 1e22; 1.5; 1786228654.348076; Float.pi; -2.5e-8 ];
  Alcotest.(check string) "0.1 stays short" "0.1" (to_string (Float 0.1));
  Alcotest.(check string) "1.5 stays short" "1.5" (to_string (Float 1.5));
  Alcotest.(check string) "pi needs 16 significant digits"
    "3.141592653589793"
    (to_string (Float Float.pi))

(* hist_quantile over the job runner's purpose-built 1-2-5 decade
   queue-wait buckets: the estimate must be monotone in q, including
   observations below the first bound and beyond the last. *)
let test_quantile_monotone_queue_buckets () =
  Ocapi_obs.reset ();
  Ocapi_obs.enable ();
  List.iter
    (fun v ->
      Ocapi_obs.observe ~buckets:Ocapi_service.queue_wait_buckets "tq.wait" v)
    [ 0.5; 3.0; 7.0; 40.0; 150.0; 900.0; 4_000.0; 75_000.0; 2.0e6; 3.0e8 ];
  let hs =
    match List.assoc_opt "tq.wait" (Ocapi_obs.snapshot ()) with
    | Some (Ocapi_obs.Histogram_v hs) -> hs
    | _ -> Alcotest.fail "histogram not recorded"
  in
  let prev = ref neg_infinity in
  for i = 0 to 100 do
    let q = float_of_int i /. 100.0 in
    let v = Ocapi_obs.hist_quantile hs q in
    Alcotest.(check bool)
      (Printf.sprintf "quantile monotone at q=%.2f (%g >= %g)" q v !prev)
      true (v >= !prev);
    prev := v
  done;
  Ocapi_obs.reset ()

let test_json_member () =
  let open Ocapi_obs.Json in
  let v = Obj [ ("a", Int 1); ("b", String "x") ] in
  Alcotest.(check bool) "present" true (member "b" v = Some (String "x"));
  Alcotest.(check bool) "absent" true (member "c" v = None);
  Alcotest.(check bool) "non-object" true (member "a" (Int 3) = None)

let test_hist_quantile () =
  (* 100 observations spread uniformly over (0, 100]: the estimator
     must land near the true quantiles and clamp to min/max. *)
  Ocapi_obs.reset ();
  Ocapi_obs.enable ();
  for i = 1 to 100 do
    Ocapi_obs.observe "tq.lat" (float_of_int i)
  done;
  let hs =
    match List.assoc_opt "tq.lat" (Ocapi_obs.snapshot ()) with
    | Some (Ocapi_obs.Histogram_v hs) -> hs
    | _ -> Alcotest.fail "histogram not recorded"
  in
  Alcotest.(check int) "count" 100 hs.Ocapi_obs.hs_count;
  let near what expect got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f within 25%% of %.1f" what got expect)
      true
      (abs_float (got -. expect) <= 0.25 *. expect)
  in
  near "p50" 50.0 (Ocapi_obs.hist_quantile hs 0.5);
  near "p95" 95.0 (Ocapi_obs.hist_quantile hs 0.95);
  Alcotest.(check (float 1e-9)) "q=0 clamps to min" 1.0
    (Ocapi_obs.hist_quantile hs 0.0);
  Alcotest.(check (float 1e-9)) "q=1 clamps to max" 100.0
    (Ocapi_obs.hist_quantile hs 1.0);
  let empty =
    {
      Ocapi_obs.hs_count = 0;
      hs_sum = 0.0;
      hs_min = infinity;
      hs_max = neg_infinity;
      hs_buckets = [];
    }
  in
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Ocapi_obs.hist_quantile empty 0.5));
  Ocapi_obs.reset ()

(* --- files ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The five JSONL readers, each as a function of its path that keeps
   only the number of values it read. *)
let readers =
  let count r = Result.map List.length r in
  [
    ("manifest", fun path -> count (Ocapi_batch.read_manifest path));
    ("journal", fun path -> count (Ocapi_service.journal_load path));
    ("corpus", fun path -> count (Result.join (Ocapi_diff.Corpus.load path)));
    ("events", fun path -> count (Result.join (Ocapi_obs.Events.load path)));
    ("ledger", fun path -> count (Result.join (Ocapi_obs.Ledger.load ~path ())));
  ]

let test_readers_reject_directories () =
  Temp_dir.with_dir "ocapi_readers" (fun dir ->
      List.iter
        (fun (name, load) ->
          match load dir with
          | Error msg ->
            Alcotest.(check bool) (name ^ ": the error names the path") true
              (contains ~sub:dir msg)
          | Ok _ -> Alcotest.failf "%s: a directory read as a file" name)
        readers)

(* A line each reader accepts, the reference of its property below. *)
let valid_line = function
  | "manifest" -> {|{"kind": "simulate", "design": "hcor"}|}
  | "journal" -> {|{"ev":"started","corr":"c1","attempt":1}|}
  | "corpus" ->
    let spec = Ocapi_diff.Spec.generate ~seed:3 () in
    Ocapi_obs.Json.to_string
      (Ocapi_diff.Corpus.entry_json
         {
           Ocapi_diff.Corpus.ce_seed = 3;
           ce_digest = Ocapi_diff.Spec.digest spec;
           ce_engines = [ "interp" ];
           ce_check = "engines";
           ce_detail = "";
           ce_spec = spec;
         })
  | "events" -> {|{"seq":1,"event":"job_submitted"}|}
  | _ ->
    Ocapi_obs.Json.to_string
      (Ocapi_obs.Ledger.entry_json
         (Ocapi_obs.Ledger.entry ~bench:"b" ~engine:"e" 1.0))

(* How a reader names line [n] in its errors. *)
let line_ref reader path n =
  match reader with
  | "manifest" -> Printf.sprintf "line %d: " n
  | "journal" -> Printf.sprintf "journal line %d: " n
  | _ -> Printf.sprintf "%s:%d: " path n

type line = Valid | Blank of string | Comment of string | Garbage of string

let line_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12) in
  let no_newline = map (String.map (fun c -> if c = '\n' then ' ' else c)) bytes in
  frequency
    [
      (4, return Valid);
      (1, map (fun s -> Blank s) (string_size ~gen:(oneofl [ ' '; '\t'; '\r' ]) (int_range 0 3)));
      (1, map (fun s -> Comment ("#" ^ s)) no_newline);
      (1, map (fun s -> Garbage ("!" ^ s)) no_newline);
    ]

(* Random mixes of accepted lines, blank and [#] lines and garbage,
   sometimes ending in a line torn short: each reader returns [Ok] with
   one value per accepted line, or [Error] naming the first bad line,
   and never raises.  The journal and the ledger drop a bad final line
   (a torn append); the manifest, corpus and event log reject it. *)
let test_readers_property =
  QCheck.Test.make ~count:60 ~name:"JSONL readers: Ok or the first bad line"
    QCheck.(
      make
        Gen.(
          triple (oneofl (List.map fst readers)) (list_size (int_range 0 12) line_gen)
            (opt (int_range 1 30))))
    (fun (reader, lines, torn) ->
      let valid = valid_line reader in
      let text = function
        | Valid -> valid
        | Blank s | Comment s | Garbage s -> s
      in
      let torn_line = Option.map (fun k -> String.sub valid 0 (min k (String.length valid - 1))) torn in
      Temp_dir.with_dir "ocapi_jsonl" (fun dir ->
          let path = Filename.concat dir "file.jsonl" in
          let body = String.concat "" (List.map (fun l -> text l ^ "\n") lines) in
          Result.get_ok
            (Ocapi_obs.File.publish path (body ^ Option.value torn_line ~default:""));
          (* The lines a reader parses, numbered: [true] when accepted. *)
          let parsed =
            List.filter_map Fun.id
              (List.mapi
                 (fun i l ->
                   match l with
                   | Valid -> Some (i + 1, true)
                   | Garbage _ -> Some (i + 1, false)
                   | Blank _ | Comment _ -> None)
                 lines)
            @ Option.fold ~none:[] ~some:(fun _ -> [ (List.length lines + 1, false) ]) torn_line
          in
          let parsed =
            match (reader, List.rev parsed) with
            | ("journal" | "ledger"), (_, false) :: earlier -> List.rev earlier
            | _ -> parsed
          in
          let load = List.assoc reader readers in
          match (List.find_opt (fun (_, ok) -> not ok) parsed, load path) with
          | None, Ok n -> n = List.length parsed
          | Some (n, _), Error msg -> contains ~sub:(line_ref reader path n) msg
          | _ -> false))

(* A writer killed mid-append leaves a torn final line.  The next
   append cuts it, so each appended file still loads after two more
   appends, with the whole entries it held before and the two new ones. *)
let test_appends_after_torn_line () =
  let appenders =
    [
      ( "journal",
        fun path ->
          Ocapi_service.journal_append path
            (Ocapi_service.J_started { jt_corr = "c2"; jt_attempt = 1 }) );
      ( "corpus",
        fun path ->
          let spec = Ocapi_diff.Spec.generate ~seed:5 () in
          Result.get_ok
            (Ocapi_diff.Corpus.append path
               [
                 {
                   Ocapi_diff.Corpus.ce_seed = 5;
                   ce_digest = Ocapi_diff.Spec.digest spec;
                   ce_engines = [ "interp" ];
                   ce_check = "engines";
                   ce_detail = "";
                   ce_spec = spec;
                 };
               ]) );
      ( "ledger",
        fun path ->
          Result.get_ok
            (Ocapi_obs.Ledger.append ~path
               (Ocapi_obs.Ledger.entry ~bench:"b" ~engine:"e" 2.0)) );
    ]
  in
  Temp_dir.with_dir "ocapi_torn" (fun dir ->
      List.iter
        (fun (reader, append) ->
          let path = Filename.concat dir (reader ^ ".jsonl") in
          let valid = valid_line reader in
          Result.get_ok
            (Ocapi_obs.File.publish path (valid ^ "\n" ^ String.sub valid 0 9));
          append path;
          append path;
          Alcotest.(check (result int string))
            (reader ^ ": the torn line is gone, three entries load") (Ok 3)
            (List.assoc reader readers path))
        appenders)

let test_publish_failures () =
  Temp_dir.with_dir "ocapi_publish" (fun dir ->
      let file = Filename.concat dir "file" in
      Result.get_ok (Ocapi_obs.File.publish file "x");
      let blocked = Filename.concat dir "blocked" in
      Unix.mkdir blocked 0o755;
      List.iter
        (fun (what, path) ->
          (match Ocapi_obs.File.publish path "data" with
          | Error msg ->
            Alcotest.(check bool) (what ^ ": names the path") true (contains ~sub:path msg)
          | Ok () -> Alcotest.failf "%s: published" what);
          Alcotest.(check (list string)) (what ^ ": no temp file left") [ "blocked"; "file" ]
            (List.sort compare (Array.to_list (Sys.readdir dir)));
          Alcotest.(check (list string)) (what ^ ": nothing in the directory") []
            (Array.to_list (Sys.readdir blocked)))
        [
          ("into a directory that cannot be made", Filename.concat file "sub/x.json");
          ("onto a directory", blocked);
        ])

(* No file path crashes the CLI: each of these exits 1, not the 125 of
   an uncaught exception, with a message naming the path. *)
let test_cli_file_paths () =
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  Temp_dir.with_dir "ocapi_cli_paths" (fun dir ->
      let sub name = Filename.concat dir name in
      let d = sub "d" and state = sub "state" and file = sub "file" in
      let ledger = sub "ledger.jsonl" and manifest = sub "jobs.jsonl" in
      Unix.mkdir d 0o755;
      Result.get_ok (Ocapi_obs.File.mkdir_p (Filename.concat state "journal.jsonl"));
      Result.get_ok (Ocapi_obs.File.publish file "");
      Result.get_ok (Ocapi_obs.File.publish manifest (valid_line "manifest" ^ "\n"));
      Result.get_ok (Ocapi_obs.File.publish ledger (valid_line "ledger" ^ "\n"));
      let html = Filename.concat file "x.html" in
      List.iter
        (fun (args, named) ->
          let err = sub "stderr" in
          let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out errfd in
          Unix.close out;
          Unix.close errfd;
          let _, status = Unix.waitpid [] pid in
          let line = String.concat " " args in
          Alcotest.(check bool) (line ^ ": exit 1") true (status = Unix.WEXITED 1);
          Alcotest.(check bool) (line ^ ": names " ^ named) true
            (contains ~sub:named (Result.get_ok (Ocapi_obs.File.read err))))
        [
          ([ "batch"; "--manifest"; d; "--artifacts"; sub "art" ], d);
          ( [ "serve"; "--manifest"; manifest; "--state-dir"; state; "--artifacts"; sub "art" ],
            Filename.concat state "journal.jsonl" );
          ([ "fuzz"; "--corpus"; d; "--count"; "1" ], d);
          ([ "report"; "--ledger"; d ], d);
          ([ "report"; "--ledger"; ledger; "--events"; d ], d);
          ([ "report"; "--ledger"; ledger; "--html"; html ], html);
          ([ "emit"; "hcor"; "--dir"; file ], file);
        ])

let suite =
  [
    Alcotest.test_case "counter and gauge semantics" `Quick test_counters;
    Alcotest.test_case "Json.of_string round trip" `Quick
      test_json_of_string_roundtrip;
    Alcotest.test_case "Json.of_string error paths" `Quick
      test_json_error_paths;
    Alcotest.test_case "Json float rendering is canonical" `Quick
      test_json_float_bytes;
    Alcotest.test_case "quantiles monotone over queue buckets" `Quick
      test_quantile_monotone_queue_buckets;
    Alcotest.test_case "Json.member lookup" `Quick test_json_member;
    Alcotest.test_case "hist_quantile estimation" `Quick test_hist_quantile;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "trace JSON well-formed" `Quick test_trace_json;
    Alcotest.test_case "disabled path records nothing" `Quick
      test_disabled_spans_are_free;
    Alcotest.test_case "instrumented run equals plain run" `Quick
      test_instrumented_equals_plain;
    Alcotest.test_case "first_history_mismatch pinpointing" `Quick
      test_first_history_mismatch;
    Alcotest.test_case "VCD leaves later simulation unchanged" `Quick
      test_vcd_leaves_simulation;
    Alcotest.test_case "run_with_telemetry report" `Quick
      test_run_with_telemetry_report;
    Alcotest.test_case "JSONL readers: a directory is an error" `Quick
      test_readers_reject_directories;
    QCheck_alcotest.to_alcotest test_readers_property;
    Alcotest.test_case "appends after a torn line load" `Quick
      test_appends_after_torn_line;
    Alcotest.test_case "publish failures leave no temp file" `Quick
      test_publish_failures;
    Alcotest.test_case "no file path crashes the CLI" `Quick test_cli_file_paths;
  ]
