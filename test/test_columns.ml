(* The stimulus-column contract: a primary input's function is called
   once per cycle per system whatever reads it, column reads equal the
   function in any read order, a raising function raises again at its
   cycle, a token in a format other than the declared one is a
   structured error, and the result-cache key still reads the stimulus
   bytes it read before there were columns. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* y = x + acc and acc <- x + z; both inputs carry a token every cycle
   and count their calls in [calls]. *)
let counted_system calls =
  let acc = Signal.Reg.create clk "counted_acc" s8 in
  let sfg =
    Sfg.build "counted_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let z = Sfg.Builder.input b "z" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x +: z))
  in
  let fsm = Fsm.create "counted_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "counted" in
  let comp = Cycle_system.add_timed sys "counted" fsm in
  let input i name =
    Cycle_system.add_input sys name s8 (fun c ->
        calls.(i) <- calls.(i) + 1;
        Some (Fixed.of_int s8 ((c * (7 + (4 * i)) mod 90) - 45)))
  in
  let x = input 0 "x_in" and z = input 1 "z_in" in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (x, "out") [ (comp, "x") ]);
  ignore (Cycle_system.connect sys (z, "out") [ (comp, "z") ]);
  ignore (Cycle_system.connect sys (comp, "y") [ (p, "in") ]);
  sys

let cycles = 24

(* Every reader on a fresh system, and all of them in turn on one
   system: either way the function runs exactly [cycles] times per
   input, however often the reader steps each cycle. *)
let test_called_once_per_cycle () =
  let readers =
    List.map
      (fun engine ->
        ( "SEU campaign on " ^ engine,
          fun sys ->
            ignore (Ocapi_fault.seu_campaign ~engine ~runs:12 ~seed:3 sys ~cycles)
        ))
      [ "interp"; "compiled"; "native"; "rtl"; "gate" ]
    @ [
        ("engine sweep", fun sys -> ignore (Flow.engine_disagreements sys ~cycles));
        ( "cache key, then simulate",
          fun sys ->
            ignore (Flow.Cache.key_of ~engine:"interp" ~seed:0 sys ~cycles);
            ignore (Flow.simulate sys ~cycles) );
      ]
  in
  let shared_calls = Array.make 2 0 in
  let shared = counted_system shared_calls in
  List.iter
    (fun (name, read) ->
      let calls = Array.make 2 0 in
      read (counted_system calls);
      Alcotest.(check (array int)) name [| cycles; cycles |] calls;
      read shared;
      Alcotest.(check (array int))
        (name ^ ", shared system") [| cycles; cycles |] shared_calls)
    readers

(* A pure stimulus: a token on most cycles, [None] on about one cycle
   in [gap] (none when [gap] is 0, every cycle when it is 1). *)
let pure_stimulus ~seed ~gap c =
  let h = Hashtbl.hash (seed, c) in
  if gap > 0 && h mod gap = 0 then None
  else Some (Fixed.of_int s8 ((h / 7 mod 256) - 128))

(* Reads come in runs of consecutive cycles, each from a random start:
   a step loop from reset, or from a restored checkpoint behind the
   highest cycle read so far. *)
let column_read_property =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* gap = int_range 0 4 in
      let* runs = list_size (int_range 1 12) (pair (int_bound 300) (int_range 1 40)) in
      return (seed, gap, runs))
  in
  let print (seed, gap, runs) =
    Printf.sprintf "seed %d, gap %d, runs %s" seed gap
      (String.concat " "
         (List.map (fun (s, n) -> Printf.sprintf "%d+%d" s n) runs))
  in
  QCheck.Test.make ~name:"column reads = the function, in any read order"
    ~count:200 (QCheck.make ~print gen) (fun (seed, gap, runs) ->
      let calls = ref 0 in
      let sys = Cycle_system.create "column_prop" in
      ignore
        (Cycle_system.add_input sys "i" s8 (fun c ->
             incr calls;
             pure_stimulus ~seed ~gap c));
      let col = Cycle_system.input_column sys "i" in
      let _, _, view = List.hd (Cycle_system.primary_inputs sys) in
      let highest = ref (-1) in
      let read_equal c =
        highest := max !highest c;
        let expected = pure_stimulus ~seed ~gap c in
        let direct =
          if Cycle_system.column_present col c then
            Some (Cycle_system.column_mantissa col c)
          else None
        in
        direct = Option.map Fixed.mantissa expected
        && Option.equal Fixed.equal (view c) expected
      in
      List.for_all
        (fun (start, len) -> List.for_all read_equal (List.init len (( + ) start)))
        runs
      && !calls = !highest + 1)

let one_input_system name fmt fn =
  let sys = Cycle_system.create name in
  ignore (Cycle_system.add_input sys "i" fmt fn);
  (sys, Cycle_system.input_column sys "i")

(* The function's own exception propagates; the cycles below it stay
   readable without a call, and reading its cycle calls it again. *)
let test_raise_calls_again () =
  let k = 5 in
  let calls = ref 0 in
  let _, col =
    one_input_system "raising" s8 (fun c ->
        incr calls;
        if c = k then failwith "stimulus fault" else Some (Fixed.of_int s8 c))
  in
  let raises c =
    match Cycle_system.column_present col c with
    | _ -> Alcotest.failf "cycle %d: expected the function's exception" c
    | exception Failure msg ->
      Alcotest.(check string) "exception unchanged" "stimulus fault" msg
  in
  raises 9;
  Alcotest.(check int) "called up to the raising cycle" (k + 1) !calls;
  for c = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "cycle %d readable" c) true
      (Cycle_system.column_present col c
      && Cycle_system.column_mantissa col c = Int64.of_int c)
  done;
  Alcotest.(check int) "no call below the raising cycle" (k + 1) !calls;
  raises k;
  Alcotest.(check int) "the raising cycle calls again" (k + 2) !calls

(* A token in a format other than the input's declared one: the
   engines would disagree on its mantissa, so it is refused. *)
let test_format_mismatch () =
  let s16 = Fixed.signed ~width:16 ~frac:0 in
  let _, col =
    one_input_system "wrong_format" s8 (fun c ->
        Some (Fixed.of_int (if c = 3 then s16 else s8) c))
  in
  match Cycle_system.column_present col 6 with
  | _ -> Alcotest.fail "expected Ocapi_error.Error"
  | exception Ocapi_error.Error e ->
    Alcotest.(check string) "code" "unsupported"
      (Ocapi_error.code_label e.Ocapi_error.e_code);
    Alcotest.(check (option string)) "construct" (Some "i") e.Ocapi_error.e_construct;
    Alcotest.(check (option int)) "cycle" (Some 3) e.Ocapi_error.e_cycle

(* The cache key, pinned: its stimulus fingerprint reads the stimulus
   columns, and its design part is the elaboration key, so a RAM's word
   count (which the digest leaves out) keys apart.  A change here moves
   every result-cache entry and job-runner dedup key. *)
let test_cache_key_pins () =
  List.iter
    (fun (name, sys, md5) ->
      Alcotest.(check string) name md5
        (Digest.to_hex
           (Digest.string (Flow.Cache.key_of ~engine:"pin" ~seed:1 sys ~cycles:64))))
    [
      ("hcor", Gallery.hcor (), "efb9ab2c3f92d20e0b6c3464cb29e938");
      ("dect", Gallery.dect (), "cc944475408a375dfa23176f1c899052");
      ("rs", Gallery.rs (), "0fb28d5681cf2e86750858d9d6e1c7cf");
      ("cpu", Gallery.cpu (), "df209eda6b7089c9aeda33bd7ecc7ff8");
    ]

let suite =
  [
    Alcotest.test_case "function called once per cycle per system" `Quick
      test_called_once_per_cycle;
    QCheck_alcotest.to_alcotest column_read_property;
    Alcotest.test_case "raising function raises again at its cycle" `Quick
      test_raise_calls_again;
    Alcotest.test_case "token in another format is a structured error" `Quick
      test_format_mismatch;
    Alcotest.test_case "cache key pinned: hcor, dect, rs, cpu" `Quick
      test_cache_key_pins;
  ]
