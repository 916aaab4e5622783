(* The perf ledger and event log: entry JSON round-trips, concurrent
   appends from multiple domains interleave whole lines, the rolling
   baseline and verdict math classifies synthetic histories correctly,
   and the canonical event form is independent of emission order. *)

module J = Ocapi_obs.Json
module L = Ocapi_obs.Ledger
module E = Ocapi_obs.Events

let tmp_ledger tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ocapi-test-ledger-%s-%d.jsonl" tag (Unix.getpid ()))

let with_ledger tag f =
  let path = tmp_ledger tag in
  if Sys.file_exists path then Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---- entry JSON round-trip ---------------------------------------------- *)

let test_entry_roundtrip () =
  let e =
    L.entry ~digest:"abc123" ~unit_:"runs/s" ~domains:3 ~bench:"t:bench"
      ~engine:"compiled" 123.456
  in
  Alcotest.(check bool) "commit stamped" true (String.length e.L.en_commit > 0);
  Alcotest.(check bool) "host stamped" true (String.length e.L.en_host > 0);
  match L.entry_of_json (L.entry_json e) with
  | Error msg -> Alcotest.fail ("entry_json rejected by entry_of_json: " ^ msg)
  | Ok e' ->
    Alcotest.(check string) "bench" e.L.en_bench e'.L.en_bench;
    Alcotest.(check string) "engine" e.L.en_engine e'.L.en_engine;
    Alcotest.(check string) "digest" e.L.en_digest e'.L.en_digest;
    Alcotest.(check string) "unit" e.L.en_unit e'.L.en_unit;
    Alcotest.(check string) "commit" e.L.en_commit e'.L.en_commit;
    Alcotest.(check string) "host" e.L.en_host e'.L.en_host;
    Alcotest.(check int) "domains" e.L.en_domains e'.L.en_domains;
    Alcotest.(check bool) "value bits" true (e.L.en_value = e'.L.en_value);
    Alcotest.(check bool) "ts bits" true (e.L.en_ts = e'.L.en_ts)

let test_append_load () =
  with_ledger "basic" (fun path ->
      Alcotest.(check bool) "missing file loads empty" true
        (L.load ~path () = Ok (Ok []));
      let mk i =
        L.entry ~digest:"d" ~unit_:"cycles/s" ~bench:"t:a" ~engine:"e"
          (float_of_int i)
      in
      List.iter (fun i -> Result.get_ok (L.append ~path (mk i))) [ 1; 2; 3 ];
      match Result.join (L.load ~path ()) with
      | Error msg -> Alcotest.fail msg
      | Ok entries ->
        Alcotest.(check (list (float 0.0)))
          "file order preserved" [ 1.0; 2.0; 3.0 ]
          (List.map (fun e -> e.L.en_value) entries))

(* ---- concurrent appends -------------------------------------------------- *)

let test_concurrent_appends () =
  with_ledger "par" (fun path ->
      let domains = 2 and per_domain = 200 in
      let worker d () =
        for i = 1 to per_domain do
          Result.get_ok
            (L.append ~path
               (L.entry ~digest:"d" ~unit_:"runs/s"
                  ~bench:(Printf.sprintf "par:%d" d)
                  ~engine:"e"
                  (float_of_int i)))
        done
      in
      let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join ds;
      match Result.join (L.load ~path ()) with
      | Error msg -> Alcotest.fail ("concurrent ledger corrupt: " ^ msg)
      | Ok entries ->
        Alcotest.(check int) "no line lost or torn" (domains * per_domain)
          (List.length entries);
        (* Per-series order must still be 1..per_domain: appends are
           atomic whole lines, and each domain appends sequentially. *)
        List.iter
          (fun d ->
            let series =
              List.filter_map
                (fun e ->
                  if e.L.en_bench = Printf.sprintf "par:%d" d then
                    Some e.L.en_value
                  else None)
                entries
            in
            Alcotest.(check (list (float 0.0)))
              (Printf.sprintf "domain %d series ordered" d)
              (List.init per_domain (fun i -> float_of_int (i + 1)))
              series)
          (List.init domains Fun.id))

(* ---- baseline and verdict math ------------------------------------------ *)

let series bench values =
  List.map
    (fun v -> L.entry ~digest:"d" ~unit_:"x/s" ~bench ~engine:"e" v)
    values

let verdict_of bench entries =
  match
    List.find_opt (fun v -> v.L.v_bench = bench) (L.verdicts entries)
  with
  | Some v -> v
  | None -> Alcotest.fail ("no verdict for " ^ bench)

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (L.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (L.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "single" 7.0 (L.median [ 7.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (L.median []))

let test_verdict_statuses () =
  let entries =
    series "fresh" [ 100.0 ]
    @ series "steady" [ 100.0; 101.0; 99.0; 100.5 ]
    @ series "improved" [ 100.0; 101.0; 99.0; 130.0 ]
    @ series "regressed" [ 100.0; 101.0; 99.0; 70.0 ]
    @ series "collapsed" [ 100.0; 101.0; 99.0; 100.5; 10.0 ]
  in
  let check bench expect =
    let v = verdict_of bench entries in
    Alcotest.(check string) bench
      (L.status_label expect)
      (L.status_label v.L.v_status)
  in
  check "fresh" L.Fresh;
  check "steady" L.Steady;
  check "improved" L.Improved;
  check "regressed" L.Regressed;
  check "collapsed" L.Collapsed;
  let v = verdict_of "collapsed" entries in
  Alcotest.(check int) "baseline window" 4 v.L.v_window;
  Alcotest.(check (float 1e-9)) "baseline median" 100.25 v.L.v_baseline;
  Alcotest.(check (float 1e-6)) "delta" (-0.900249) v.L.v_delta;
  Alcotest.(check string) "worst over all series" "collapsed"
    (L.status_label (L.worst_status (L.verdicts entries)))

let test_verdict_window () =
  (* Only the [window] entries immediately before the newest feed the
     baseline: the ancient 1000.0 must not drag it up. *)
  let entries =
    series "w" [ 1000.0; 100.0; 100.0; 100.0; 100.0; 100.0; 99.0 ]
  in
  let v =
    match L.verdicts ~window:5 entries with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one verdict"
  in
  Alcotest.(check (float 1e-9)) "windowed baseline" 100.0 v.L.v_baseline;
  Alcotest.(check string) "steady" "steady" (L.status_label v.L.v_status)

let test_series_split () =
  (* Same bench, different engine or digest: distinct series.  Hostname
     is deliberately not part of the key. *)
  let e1 = L.entry ~digest:"d1" ~bench:"b" ~engine:"x" 1.0 in
  let e2 = L.entry ~digest:"d1" ~bench:"b" ~engine:"y" 2.0 in
  let e3 = L.entry ~digest:"d2" ~bench:"b" ~engine:"x" 3.0 in
  Alcotest.(check int) "three series" 3
    (List.length (L.series_of [ e1; e2; e3 ]));
  Alcotest.(check int) "three verdicts, all fresh" 3
    (List.length
       (List.filter
          (fun v -> v.L.v_status = L.Fresh)
          (L.verdicts [ e1; e2; e3 ])))

let test_sparkline () =
  let s = L.sparkline [ 1.0; 8.0 ] in
  Alcotest.(check bool) "non-empty" true (String.length s > 0);
  Alcotest.(check string) "flat series renders mid-blocks" ""
    (let flat = L.sparkline [ 5.0; 5.0; 5.0 ] in
     if String.length flat > 0 then "" else "empty")

(* ---- canonical event log ------------------------------------------------- *)

let render events =
  String.concat "\n"
    (List.map (fun e -> J.to_string (E.to_json ~ts:false e)) events)

let test_events_canonical_order_independent () =
  let emit_all order =
    E.clear ();
    E.set_enabled true;
    List.iter
      (fun (corr, kind) ->
        E.emit ~corr ~fields:[ ("label", J.String corr) ] kind)
      order;
    let evs = E.events () in
    E.set_enabled false;
    E.clear ();
    E.canonicalize evs
  in
  let a =
    emit_all
      [
        ("j1", "job_submitted"); ("j2", "job_submitted"); ("j1", "job_started");
        ("j2", "job_started"); ("j2", "job_completed"); ("j1", "job_completed");
      ]
  in
  let b =
    (* The same lifecycle, interleaved the other way round — as a
       different domain schedule would produce it. *)
    emit_all
      [
        ("j2", "job_submitted"); ("j1", "job_submitted"); ("j2", "job_started");
        ("j2", "job_completed"); ("j1", "job_started"); ("j1", "job_completed");
      ]
  in
  Alcotest.(check string) "canonical form ignores arrival order" (render a)
    (render b);
  Alcotest.(check int) "seq renumbered from 1" 1
    (match a with e :: _ -> e.E.e_seq | [] -> -1);
  List.iter
    (fun e -> Alcotest.(check (float 0.0)) "ts dropped" 0.0 e.E.e_ts)
    a

let test_events_write_load () =
  with_ledger "events" (fun path ->
      E.clear ();
      E.set_enabled true;
      E.emit ~corr:"c1" ~fields:[ ("label", J.String "x") ] "job_submitted";
      E.emit ~corr:"c1" "job_completed";
      Result.get_ok (Ocapi_obs.File.publish path (E.canonical_jsonl ()));
      E.set_enabled false;
      E.clear ();
      match Result.join (E.load path) with
      | Error msg -> Alcotest.fail msg
      | Ok lines ->
        Alcotest.(check int) "two events" 2 (List.length lines);
        Alcotest.(check bool) "first is job_submitted" true
          (match lines with
          | first :: _ -> J.member "event" first = Some (J.String "job_submitted")
          | [] -> false))

let suite =
  [
    Alcotest.test_case "entry JSON round trip" `Quick test_entry_roundtrip;
    Alcotest.test_case "append and load in file order" `Quick test_append_load;
    Alcotest.test_case "concurrent domain appends" `Quick
      test_concurrent_appends;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "verdict statuses" `Quick test_verdict_statuses;
    Alcotest.test_case "baseline window bounds history" `Quick
      test_verdict_window;
    Alcotest.test_case "series keyed by bench/engine/digest" `Quick
      test_series_split;
    Alcotest.test_case "sparkline rendering" `Quick test_sparkline;
    Alcotest.test_case "canonical events ignore arrival order" `Quick
      test_events_canonical_order_independent;
    Alcotest.test_case "event log write and load" `Quick
      test_events_write_load;
  ]
