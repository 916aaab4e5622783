(* Plumbing shared by the workloads: the gallery designs, the isolated
   scratch tree, the correctness gate, the committed expected values and
   the per-layer values recorded by traced runs. *)

module Json = Ocapi_obs.Json

let now = Mono.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let span = Recorder.span

(* One timed sample, with its seconds.  In traced runs it is a [sample]
   span, over which trace.accounted_frac is taken. *)
let sample f = span "sample" ~harness:true (fun () -> time f)

(* ---- designs and engines ------------------------------------------------ *)

let designs = [ "hcor"; "dect"; "rs"; "cpu" ]
let engines = [ "interp"; "compiled"; "native"; "rtl"; "gate" ]

(* Built exactly as the [ocapi] CLI builds them (bin/ocapi_cli.ml), so
   digests and histories agree with the CLI's. *)
let build = function
  | "hcor" ->
    let bits = Dect_stimuli.burst ~seed:1 () in
    let tx = Dect_stimuli.transmit bits in
    let rx = Dect_stimuli.channel ~snr_db:25.0 ~seed:1 tx in
    let samples =
      Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
    in
    (Hcor.create ~stimulus:(Hcor.sample_stimulus samples) ()).Hcor.system
  | "dect" ->
    let stim c =
      Some
        (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
           (sin (float c *. 0.37) /. 2.2))
    in
    (Dect_transceiver.create ~stimulus:stim ()).Dect_transceiver.system
  | "rs" ->
    (Rs_codec.create
       ~data_stimulus:(Rs_codec.data_stimulus ())
       ~err_stimulus:(Rs_codec.err_stimulus ()) ())
      .Rs_codec.system
  | "cpu" -> (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system
  | other -> invalid_arg ("unknown design " ^ other)

let macro_of_kernel = function
  | "dect" -> Dect_transceiver.macro_of_kernel
  | "cpu" -> Ram_cell.macro_of_kernel
  | _ -> fun _ -> None

let build_span d = span "designs.build" ~key:d (fun () -> build d)

let engine e = Ocapi_engine.get e

(* ---- seeded inputs and run length ------------------------------------------ *)

let rng ~seed tag = Random.State.make [| seed; tag |]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Every timed sample has a fixed size; [--seconds] sets only how many
   rounds of samples a run takes, relative to the nominal run length.
   Nothing depends on measured speed, so two commits given the same
   arguments do the same work. *)
let nominal_seconds = 30.0

let rounds ~scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* ---- the scratch tree ------------------------------------------------------ *)

let root = Sys.getcwd ()
let out_dir = Filename.concat root (Filename.concat "_generated" "bench")
let scratch = ref out_dir

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_counter = ref 0

(* Everything a run writes goes under one fresh directory inside the
   checkout, deleted at exit: temp files (ocamlopt's included), the perf
   ledger and the native artifact directories. *)
let init ~workload =
  scratch :=
    Filename.concat out_dir (Printf.sprintf "tmp-%s-%d" workload (Unix.getpid ()));
  let tmp = Filename.concat !scratch "tmp" in
  mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp;
  Unix.putenv "OCAPI_LEDGER" (Filename.concat !scratch "ledger.jsonl");
  at_exit (fun () -> rm_rf !scratch)

(* The native engine reads its artifact directory from the environment
   on every session, so a fresh directory makes the next session cold. *)
let fresh_native_dir () =
  incr dir_counter;
  let d = Filename.concat !scratch (Printf.sprintf "native-%04d" !dir_counter) in
  mkdir_p d;
  Unix.putenv "OCAPI_NATIVE_CACHE_DIR" d

(* ---- prerequisites ----------------------------------------------------------- *)

(* A prerequisite the benchmark cannot run without; reported as a
   structured error instead of skipping the work. *)
exception Unavailable of string * string

let require_native () =
  match Ocapi_native.availability () with
  | Ok () -> ()
  | Error e -> raise (Unavailable ("native_unavailable", Ocapi_error.to_string e))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- the correctness gate --------------------------------------------------------- *)

(* One operation is one cell or one campaign, named when it is
   attempted.  It fails when it raises or when one of its checks fails;
   the first reason is kept and printed on stderr.  Every check is
   charged to the operations whose output it checks, so the failed
   operations are a subset of the attempted ones. *)
let attempted : (string, unit) Hashtbl.t = Hashtbl.create 64
let failures : (string, string) Hashtbl.t = Hashtbl.create 16

let attempt op = Hashtbl.replace attempted op ()
let n_attempted () = Hashtbl.length attempted
let n_failed () = Hashtbl.length failures

let fail op reason =
  if not (Hashtbl.mem attempted op) then
    invalid_arg (Printf.sprintf "check charged to %s, which was never attempted" op);
  if not (Hashtbl.mem failures op) then begin
    Hashtbl.add failures op reason;
    Printf.eprintf "FAILED %s: %s\n%!" op reason
  end

let fail_all ops reason = List.iter (fun op -> fail op reason) ops

let check op cond reason = if not cond then fail op (Lazy.force reason)

(* [guard ops f]: [f ()], or [None] with every one of [ops] failed when
   it raises. *)
let guard ops f =
  match f () with
  | v -> Some v
  | exception (Unavailable _ as e) -> raise e
  | exception e ->
    fail_all ops (Printexc.to_string e);
    None

let check_no_fallback ops =
  if (Ocapi_native.stats ()).Ocapi_native.fallbacks > 0 then
    fail_all ops "native engine fell back"

(* ---- committed expected values -------------------------------------------------------- *)

(* Values every run records under [_generated/bench/<workload>.observed.json];
   those that apply to the run are compared exactly against
   bench/perf/expected_seed1.json. *)
let observed : (string * Json.t) list ref = ref []

(* Relative to the checkout root, which a run's working directory is. *)
let expected_file = "bench/perf/expected_seed1.json"

let expected_path = ref (Filename.concat root expected_file)

let expected =
  lazy
    (match Json.of_string (read_file !expected_path) with
    | Ok j -> j
    | Error e -> failwith (!expected_path ^ ": " ^ e)
    | exception Sys_error e -> failwith e)

let expect ~workload ~op ~applies key value =
  (match List.assoc_opt key !observed with
  | None -> observed := (key, value) :: !observed
  | Some v ->
    check op (v = value)
      (lazy (Printf.sprintf "%s changed between two passes of the run" key)));
  if applies then
    match
      Option.bind (Json.member workload (Lazy.force expected)) (Json.member key)
    with
    | Some v when v = value -> ()
    | Some v ->
      fail op
        (Printf.sprintf "%s = %s, expected %s" key (Json.to_string value)
           (Json.to_string v))
    | None -> fail op (Printf.sprintf "%s has no expected value" key)

let write_observed ~workload =
  mkdir_p out_dir;
  let path = Filename.concat out_dir (workload ^ ".observed.json") in
  let oc = open_out_bin path in
  output_string oc
    (Json.to_string (Json.Obj [ (workload, Json.Obj (List.rev !observed)) ]));
  output_char oc '\n';
  close_out oc

(* ---- per-layer values recorded by traced runs ----------------------------------------- *)

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer_values name v

let add_sample tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* ---- workload results --------------------------------------------------------------------- *)

type result = {
  setup_s : float;
  rates : (string * float) list;
      (** engine -> simulated cycles per host second (geomean over designs) *)
  timed_s : float;  (** seconds inside the timed samples *)
}

(* The host shares its cores with other machines.  A busy neighbour only
   ever adds time, up to 2x, and it leaves this process fast windows of
   about 0.1 s every few seconds; a sample of tens of milliseconds or more
   rarely fits in one.  So every sample is timed in chunks of a few
   milliseconds, each chunk the same work in every round, and a sample's
   cost is the sum over its chunks of each chunk's fastest round.

   [chunk_times points] are the intervals between consecutive time
   points of one sample; [best_chunks rounds] takes one such array per
   round and keeps each chunk's fastest.  A round whose chunking differs
   from the first's (its checks fail) is left out. *)
let chunk_times points =
  Array.init (Array.length points - 1) (fun i -> points.(i + 1) -. points.(i))

let best_chunks = function
  | [] -> [||]
  | first :: _ as rounds ->
    let best = Array.copy first in
    List.iter
      (fun a ->
        if Array.length a = Array.length best then
          Array.iteri (fun j x -> best.(j) <- Float.min best.(j) x) a)
      rounds;
    best

let best_total rounds = Array.fold_left ( +. ) 0.0 (best_chunks rounds)

(* Set-up runs once before the first round and again, its result
   released at once, during every round, so its repetitions spread over
   the run like the samples.  Each of its steps (a design
   build, a session make) is timed by [setup_step], and its time is the
   sum over steps of each step's fastest repetition. *)
type setup = { mutable steps : float list; mutable reps : float array list }

let new_setup () = { steps = []; reps = [] }

let setup_step s f =
  let v, dt = time f in
  s.steps <- dt :: s.steps;
  v

let setup_rep s f =
  s.steps <- [];
  let v = span "setup" ~harness:true f in
  s.reps <- Array.of_list (List.rev s.steps) :: s.reps;
  v

let setup_seconds s = best_total s.reps

(* Geomean over designs of a per-(engine, design) rate table. *)
let engine_rates tbl =
  List.map
    (fun e ->
      ( e,
        Stats.geomean
          (List.filter_map (fun d -> Hashtbl.find_opt tbl (e, d)) designs) ))
    engines
