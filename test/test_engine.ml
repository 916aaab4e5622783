(* Tests for the ENGINE registry and its supporting machinery: the
   canonical design digest (stability across rebuilds and global
   instance-counter offsets, sensitivity to wordlength and topology
   edits), registry lookup and aliasing, the keyed result cache
   (warm-vs-cold bit-identity on every engine, memory and disk hits),
   and the replicate shared-state footgun detection. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* A small accumulator design, parameterized so the digest tests can
   make targeted edits: [width] changes only a register/net wordlength,
   [tap] changes only the interconnect topology. *)
let tiny ?(width = 8) ?(tap = false) () =
  let fmt = Fixed.signed ~width ~frac:0 in
  let acc = Signal.Reg.create clk "tiny_acc" fmt in
  let sfg =
    Sfg.build "tiny_step" (fun b ->
        let x = Sfg.Builder.input b "x" fmt in
        Sfg.Builder.output b "y"
          (Signal.resize ~overflow:Fixed.Saturate fmt
             Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc))
  in
  let fsm = Fsm.create "tiny_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "tiny" in
  let t = Cycle_system.add_timed sys "t" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" fmt (fun c ->
        Some (Fixed.of_int fmt ((c mod 5) - 2)))
  in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (t, "x") ]);
  let y_sinks =
    if tap then
      [ (p, "in"); (Cycle_system.add_output sys "y_tap", "in") ]
    else [ (p, "in") ]
  in
  ignore (Cycle_system.connect sys (t, "y") y_sinks);
  sys

(* --- digest stability ------------------------------------------------------- *)

let test_digest_built_twice_equal () =
  Alcotest.(check string)
    "same construction, same digest"
    (Cycle_system.digest (tiny ()))
    (Cycle_system.digest (tiny ()))

(* The digest must be derived from the structure alone, never from the
   global signal/register instance counters: building unrelated designs
   in between (which advances every counter) must not change it. *)
let test_digest_instance_counter_independent () =
  let d1 = Cycle_system.digest (tiny ()) in
  for i = 0 to 9 do
    ignore (Signal.Reg.create clk (Printf.sprintf "spacer_%d" i) s8)
  done;
  ignore (tiny ~width:11 ());
  let d2 = Cycle_system.digest (tiny ()) in
  Alcotest.(check string) "digest survives counter offsets" d1 d2

let test_digest_wordlength_sensitive () =
  Alcotest.(check bool)
    "wordlength edit changes the digest" false
    (Cycle_system.digest (tiny ~width:8 ())
    = Cycle_system.digest (tiny ~width:9 ()))

let test_digest_topology_sensitive () =
  Alcotest.(check bool)
    "topology edit changes the digest" false
    (Cycle_system.digest (tiny ())
    = Cycle_system.digest (tiny ~tap:true ()))

(* --- registry --------------------------------------------------------------- *)

let test_registry_names_and_aliases () =
  Alcotest.(check (list string))
    "registry order is the Table 1 order"
    [ "interp"; "compiled"; "rtl"; "native"; "gate" ]
    (Ocapi_engine.names ());
  let name n =
    match Ocapi_engine.find n with
    | Some e -> Ocapi_engine.name_of e
    | None -> Alcotest.failf "engine %S not found" n
  in
  Alcotest.(check string) "canonical name" "interp" (name "interp");
  Alcotest.(check string) "alias interpreted" "interp" (name "interpreted");
  Alcotest.(check string) "alias rtl-sim" "rtl" (name "rtl-sim");
  Alcotest.(check string) "alias jit" "native" (name "jit");
  Alcotest.(check string) "alias netlist" "gate" (name "netlist");
  Alcotest.(check bool) "unknown name" true (Ocapi_engine.find "gates" = None)

let test_unknown_engine_structured_error () =
  match Flow.simulate ~engine:"bogus" (tiny ()) ~cycles:4 with
  | _ -> Alcotest.fail "expected Ocapi_error.Error"
  | exception Ocapi_error.Error e ->
    Alcotest.(check bool)
      "code is Unsupported" true
      (e.Ocapi_error.e_code = Ocapi_error.Unsupported);
    Alcotest.(check bool)
      "message names the registry" true
      (String.length e.Ocapi_error.e_message > 0)

(* Sessions mark their system while open and unmark it on close, which
   is what the replicate footgun detection keys on. *)
let test_session_attach_detach () =
  let sys = tiny () in
  Alcotest.(check (list string))
    "fresh system unowned" [] (Cycle_system.attached_engines sys);
  let module E = (val Ocapi_engine.get "interp") in
  let ses = E.make sys in
  Alcotest.(check (list string))
    "open session owns it" [ "interp" ]
    (Cycle_system.attached_engines sys);
  ses.Ocapi_engine.ses_close ();
  ses.Ocapi_engine.ses_close () (* idempotent *);
  Alcotest.(check (list string))
    "closed session released it" [] (Cycle_system.attached_engines sys)

(* --- the keyed result cache -------------------------------------------------- *)

let cache_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ocapi_cache_test_%d" (Unix.getpid ()))

let with_cache f =
  let dir = cache_dir in
  Flow.Cache.enable ~dir ();
  Flow.Cache.clear ();
  Flow.Cache.reset_stats ();
  Fun.protect
    ~finally:(fun () ->
      Flow.Cache.disable ();
      Flow.Cache.clear ();
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f ())

(* A warm run must be bit-identical to the cold run on every registry
   engine, and count one hit per engine. *)
let test_cache_warm_identical_all_engines () =
  with_cache (fun () ->
      let sys = tiny () in
      let cycles = 24 in
      List.iter
        (fun e ->
          let engine = Ocapi_engine.name_of e in
          let cold = Flow.simulate ~engine sys ~cycles in
          let warm = Flow.simulate ~engine sys ~cycles in
          Alcotest.(check bool)
            (engine ^ " warm = cold") true (cold = warm);
          Alcotest.(check bool)
            (engine ^ " histories non-empty") true
            (List.exists (fun (_, h) -> h <> []) cold))
        (Ocapi_engine.all ());
      let st = Flow.Cache.stats () in
      let n = List.length (Ocapi_engine.all ()) in
      Alcotest.(check int) "one hit per engine" n st.Flow.Cache.hits;
      Alcotest.(check int) "one miss per engine" n st.Flow.Cache.misses;
      Alcotest.(check int) "one entry per engine" n st.Flow.Cache.entries)

(* Key discrimination: a different engine, seed or cycle count must not
   be served from an existing entry. *)
let test_cache_key_discriminates () =
  with_cache (fun () ->
      let sys = tiny () in
      ignore (Flow.simulate ~engine:"interp" sys ~cycles:16);
      ignore (Flow.simulate ~engine:"compiled" sys ~cycles:16);
      ignore (Flow.simulate ~engine:"interp" ~seed:1 sys ~cycles:16);
      ignore (Flow.simulate ~engine:"interp" sys ~cycles:17);
      let st = Flow.Cache.stats () in
      Alcotest.(check int) "four distinct keys" 4 st.Flow.Cache.misses;
      Alcotest.(check int) "no false hits" 0 st.Flow.Cache.hits)

(* Dropping the in-memory table must leave the disk store serving warm
   runs, still bit-identically. *)
let test_cache_disk_roundtrip () =
  with_cache (fun () ->
      let sys = tiny () in
      let cold = Flow.simulate ~engine:"compiled" sys ~cycles:20 in
      Flow.Cache.clear () (* memory gone, disk survives *);
      let warm = Flow.simulate ~engine:"compiled" sys ~cycles:20 in
      Alcotest.(check bool) "disk warm = cold" true (cold = warm);
      let st = Flow.Cache.stats () in
      Alcotest.(check bool) "disk hit recorded" true
        (st.Flow.Cache.disk_hits >= 1);
      Alcotest.(check bool) "entry written to disk" true
        (st.Flow.Cache.disk_writes >= 1))

(* Builds that cached history lists wrote [v1-hist-<md5 of the key>]
   entries.  A run whose key has such an entry, one no engine would
   compute, misses it and returns the histories the engine computes. *)
let test_cache_ignores_list_entries () =
  let expected = Flow.simulate ~engine:"compiled" (tiny ()) ~cycles:20 in
  with_cache (fun () ->
      let sys = tiny () in
      let key = Flow.Cache.key_of ~engine:"compiled" ~seed:0 sys ~cycles:20 in
      let stale = [ ("y_out", [ (0, Fixed.of_int s8 99) ]) ] in
      Out_channel.with_open_bin
        (Filename.concat cache_dir
           ("v1-hist-" ^ Digest.to_hex (Digest.string key) ^ ".cache"))
        (fun oc -> Marshal.to_channel oc (key, stale) []);
      Alcotest.(check bool) "the engine's histories" true
        (Flow.simulate ~engine:"compiled" sys ~cycles:20 = expected);
      let st = Flow.Cache.stats () in
      Alcotest.(check (pair int int)) "one miss, no hit" (1, 0)
        (st.Flow.Cache.misses, st.Flow.Cache.hits))

(* --- the replicate footgun --------------------------------------------------- *)

let shared_state_code = function
  | Ocapi_error.Error e -> e.Ocapi_error.e_code = Ocapi_error.Shared_state
  | _ -> false

let test_replicate_returns_campaign_rejected () =
  let sys = tiny () in
  match
    Ocapi_fault.seu_campaign ~runs:4 ~domains:2 ~replicate:(fun () -> sys) sys
      ~cycles:8
  with
  | _ -> Alcotest.fail "expected Shared_state error"
  | exception e ->
    Alcotest.(check bool)
      "structured Shared_state error" true (shared_state_code e)

let test_replicate_live_session_rejected () =
  let sys = tiny () in
  let replica = tiny () in
  let module E = (val Ocapi_engine.get "compiled") in
  let ses = E.make replica in
  Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
      match
        Ocapi_fault.seu_campaign ~runs:4 ~domains:2
          ~replicate:(fun () -> replica)
          sys ~cycles:8
      with
      | _ -> Alcotest.fail "expected Shared_state error"
      | exception e ->
        Alcotest.(check bool)
          "session-owned replica rejected" true (shared_state_code e))

(* --- session checkpoints ------------------------------------------------------ *)

let cpu () = (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system

let dect () =
  (Dect_transceiver.create
     ~stimulus:(fun c ->
       Some
         (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
            (sin (float_of_int c *. 0.37) /. 2.2)))
     ())
    .Dect_transceiver.system

let step_n ses n =
  for _ = 1 to n do
    ses.Ocapi_engine.ses_step ()
  done

(* The histories from cycle [c] on. *)
let from_cycle c h = List.map (fun (p, toks) -> (p, List.filter (fun (k, _) -> k >= c) toks)) h

(* A state poke outside the encoded states: raises [Invalid_state]. *)
let invalid_state_poke ses =
  let rec first i =
    if i >= ses.Ocapi_engine.ses_component_count then None
    else if snd (ses.Ocapi_engine.ses_component_info i) < 65536 then Some i
    else first (i + 1)
  in
  match first 0 with
  | None -> ()
  | Some i -> (
    match ses.Ocapi_engine.ses_force_component_state i 65535 with
    | () -> Alcotest.fail "an unencoded state was accepted"
    | exception Ocapi_error.Error e ->
      Alcotest.(check string) "poke diagnostic" "invalid-state"
        (Ocapi_error.code_label e.Ocapi_error.e_code))

(* On every engine, over a RAM in the timed/untimed loop (cpu) and many
   components (dect): the cycle-0 checkpoint equals a reset; a later
   checkpoint restores the fault-free run from any perturbed state; it
   matches the fault-free state and not one with a flipped register. *)
let test_checkpoint_contract () =
  List.iter
    (fun (design, build, cycles, c) ->
      List.iter
        (fun e ->
          let engine = Ocapi_engine.name_of e in
          let what fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s on %s: %s" design engine s) fmt in
          let module E = (val e) in
          let ses = E.make (build ()) in
          let checkpoint () =
            match ses.Ocapi_engine.ses_checkpoint () with
            | Some ck -> ck
            | None -> Alcotest.fail (what "no checkpoint")
          in
          Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
              ses.ses_reset ();
              let ck0 = checkpoint () in
              step_n ses c;
              let ck = checkpoint () in
              Alcotest.(check int) (what "checkpoint cycle") c ck.ck_cycle;
              Alcotest.(check bool) (what "matches the state it copied") true (ck.ck_matches ());
              step_n ses (cycles - c);
              let golden = ses.ses_histories () in
              Alcotest.(check bool) (what "a later state does not match") false (ck.ck_matches ());
              (* the cycle-0 checkpoint is a reset *)
              ses.ses_poke_register_bit 0 ~bit:0;
              ck0.ck_restore ();
              Alcotest.(check int) (what "cycle after restoring cycle 0") 0 (ses.ses_cycle ());
              step_n ses cycles;
              Alcotest.(check bool) (what "cycle-0 restore = reset") true
                (ses.ses_histories () = golden);
              let tail = from_cycle c golden in
              let resumes label perturb =
                perturb ();
                ck.ck_restore ();
                Alcotest.(check int) (what "%s: cycle" label) c (ses.ses_cycle ());
                Alcotest.(check bool) (what "%s: matches again" label) true (ck.ck_matches ());
                step_n ses (cycles - c);
                Alcotest.(check bool) (what "%s: fault-free histories from the checkpoint" label)
                  true (ses.ses_histories () = tail)
              in
              resumes "register flip" (fun () ->
                  ses.ses_poke_register_bit 0 ~bit:0;
                  step_n ses 3);
              resumes "extra steps" (fun () -> step_n ses 5);
              resumes "invalid state poke" (fun () ->
                  ck.ck_restore ();
                  step_n ses 2;
                  invalid_state_poke ses);
              ck.ck_restore ();
              ses.ses_poke_register_bit 0 ~bit:0;
              Alcotest.(check bool) (what "a flipped register does not match") false
                (ck.ck_matches ())))
        (Ocapi_engine.all ()))
    [ ("cpu", cpu, 40, 13); ("dect", dect, 32, 13) ]

(* [tiny]'s accumulator feeding a stateful untimed kernel: a running
   sum, staged by the behaviour and committed at the cycle's end, that
   carries no [k_snapshot] hook. *)
let tiny_with_counter () =
  let acc = Signal.Reg.create clk "counted_acc" s8 in
  let sfg =
    Sfg.build "counted_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y"
          (Signal.resize ~overflow:Fixed.Saturate s8 Signal.(x +: reg_q acc));
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc))
  in
  let fsm = Fsm.create "counted_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let total = ref 0 and staged = ref 0 in
  let wrap x = ((x + 128) land 255) - 128 in
  let counter =
    Dataflow.Kernel.create "counter"
      ~formats:[ ("in", s8); ("out", s8) ]
      ~reset:(fun () ->
        total := 0;
        staged := 0)
      ~commit:(fun () -> total := !staged)
      ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        let v = Fixed.to_int (List.hd (List.assoc "in" consumed)) in
        staged := wrap (!total + v);
        [ ("out", [ Fixed.of_int s8 !total ]) ])
  in
  let sys = Cycle_system.create "counted" in
  let t = Cycle_system.add_timed sys "t" fsm in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some (Fixed.of_int s8 ((c mod 5) - 2)))
  in
  let k = Cycle_system.add_untimed sys counter in
  let p = Cycle_system.add_output sys "sum" in
  ignore (Cycle_system.connect sys (stim, "out") [ (t, "x") ]);
  ignore (Cycle_system.connect sys (t, "y") [ (k, "in") ]);
  ignore (Cycle_system.connect sys (k, "out") [ (p, "in") ]);
  sys

(* Without the hook a session cannot copy its state: it has no
   checkpoint, and an SEU campaign on it replays every run from reset,
   giving the reference's report. *)
let test_checkpoint_without_kernel_hook () =
  List.iter
    (fun e ->
      let engine = Ocapi_engine.name_of e in
      let module E = (val e) in
      let ses = E.make (tiny_with_counter ()) in
      Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
          ses.ses_reset ();
          step_n ses 9;
          Alcotest.(check bool) (engine ^ ": no checkpoint") true
            (Option.is_none (ses.ses_checkpoint ())));
      let runs = 40 and seed = 3 and cycles = 24 in
      let reference =
        Ocapi_fault.seu_campaign_from_reset ~engine ~runs ~seed (tiny_with_counter ())
          ~cycles
      and r = Ocapi_fault.seu_campaign ~engine ~runs ~seed (tiny_with_counter ()) ~cycles in
      (* an [Invalid_argument] inside a run is an [Internal] detection,
         which both sides could share *)
      Alcotest.(check bool) (engine ^ ": no internal error") true
        (List.for_all
           (fun (x : Ocapi_fault.seu_run) ->
             match x.run_outcome with
             | Ocapi_fault.Detected { Ocapi_error.e_code = Ocapi_error.Internal; _ } -> false
             | _ -> true)
           r.Ocapi_fault.seu_records);
      let json r = Ocapi_obs.Json.to_string (Ocapi_fault.seu_report_json r) in
      Alcotest.(check string) (engine ^ ": campaign = runs from reset") (json reference)
        (json r))
    (* The gate engine synthesizes kernels into macros: a host kernel
       cannot reach it. *)
    (List.filter (fun e -> Ocapi_engine.name_of e <> "gate") (Ocapi_engine.all ()))

let suite =
  [
    Alcotest.test_case "digest: built twice, equal" `Quick
      test_digest_built_twice_equal;
    Alcotest.test_case "digest: instance-counter independent" `Quick
      test_digest_instance_counter_independent;
    Alcotest.test_case "digest: wordlength sensitive" `Quick
      test_digest_wordlength_sensitive;
    Alcotest.test_case "digest: topology sensitive" `Quick
      test_digest_topology_sensitive;
    Alcotest.test_case "registry names and aliases" `Quick
      test_registry_names_and_aliases;
    Alcotest.test_case "unknown engine is a structured error" `Quick
      test_unknown_engine_structured_error;
    Alcotest.test_case "sessions mark and release their system" `Quick
      test_session_attach_detach;
    Alcotest.test_case "cache: warm = cold on all engines" `Quick
      test_cache_warm_identical_all_engines;
    Alcotest.test_case "cache: key discriminates" `Quick
      test_cache_key_discriminates;
    Alcotest.test_case "cache: older list entries are missed" `Quick
      test_cache_ignores_list_entries;
    Alcotest.test_case "cache: disk round-trip" `Quick
      test_cache_disk_roundtrip;
    Alcotest.test_case "replicate: campaign system rejected" `Quick
      test_replicate_returns_campaign_rejected;
    Alcotest.test_case "replicate: live session rejected" `Quick
      test_replicate_live_session_rejected;
    Alcotest.test_case "checkpoints: restore and match on every engine" `Quick
      test_checkpoint_contract;
    Alcotest.test_case "checkpoints: no state hook, campaign runs from reset" `Quick
      test_checkpoint_without_kernel_hook;
  ]
