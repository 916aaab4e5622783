(* The job vocabulary: designs, jobs and requests, the manifest
   reader and parser, and job preparation.  The runner that executes
   prepared jobs is [Ocapi_service]. *)

module Json = Ocapi_obs.Json

let ( let* ) = Result.bind

(* --- designs ---------------------------------------------------------------- *)

(* Jobs name gallery designs, the only designs an [ocapi worker]
   process can build. *)
let find_design name =
  match Gallery.build name with
  | Some sys -> sys
  | None ->
    Ocapi_error.fail Ocapi_error.Unsupported ~engine:"batch"
      "unknown design %S (registered: %s)" name
      (String.concat ", " (List.sort String.compare Gallery.names))

(* --- jobs ----------------------------------------------------------------- *)

type priority = High | Normal | Low

type job =
  | Simulate of {
      sim_design : string;
      sim_engine : string;
      sim_cycles : int;
      sim_seed : int;
    }
  | Seu of {
      seu_design : string;
      seu_engine : string;
      seu_runs : int;
      seu_cycles : int;
      seu_seed : int;
    }
  | Stuck_at of {
      sa_design : string;
      sa_cycles : int;
      sa_seed : int;
      sa_max_faults : int option;
    }
  | Engine_sweep of { sw_design : string; sw_cycles : int }
  | Fuzz of {
      fu_seed : int;
      fu_count : int;
      fu_engines : string list option;
      fu_deep : bool;
      fu_shrink : bool;
    }

type request = {
  rq_job : job;
  rq_priority : priority;
  rq_timeout : float option;
  rq_label : string option;
}

(* The correlation id is a short digest of the dedup key: deterministic
   for a given job (identical across worker kinds and processes), shared
   by every event of one execution, and passed to [Flow.simulate ~corr]
   so the run's trace span carries it too. *)
let corr_of_key key = String.sub (Digest.to_hex (Digest.string key)) 0 12

(* --- JSON fields ---------------------------------------------------------- *)

module Field = struct
  type 'a t = { what : string; get : Json.t -> 'a option }

  let string =
    { what = "a string"; get = (function Json.String s -> Some s | _ -> None) }

  let int =
    { what = "an integer"; get = (function Json.Int n -> Some n | _ -> None) }

  let bool =
    { what = "a boolean"; get = (function Json.Bool b -> Some b | _ -> None) }

  let number =
    {
      what = "a number";
      get =
        (function
        | Json.Int n -> Some (float_of_int n)
        | Json.Float f -> Some f
        | _ -> None);
    }

  let opt name c j =
    match Json.member name j with
    | None -> Ok None
    | Some v -> (
      match c.get v with
      | Some x -> Ok (Some x)
      | None -> Error (Printf.sprintf "field %S must be %s" name c.what))

  let req name c j =
    let* v = opt name c j in
    Option.to_result v ~none:(Printf.sprintf "missing required field %S" name)
end

(* --- manifests ------------------------------------------------------------ *)

let read_manifest path =
  let rec values acc = function
    | [] -> Ok (List.rev acc)
    | (_, Ok j) :: rest -> values (j :: acc) rest
    | (n, Error e) :: _ -> Error (Printf.sprintf "line %d: invalid JSON: %s" n e)
  in
  Result.bind (Ocapi_obs.File.read_jsonl path) (values [])

let request_of_json json =
  let open Field in
  let count =
    {
      what = "a positive integer";
      get = (function Json.Int n when n > 0 -> Some n | _ -> None);
    }
  in
  let seconds =
    {
      what = "a positive number";
      get =
        (fun j ->
          Option.bind (number.get j) (fun s -> if s > 0. then Some s else None));
    }
  in
  let strings =
    {
      what = "a list of strings";
      get =
        (function
        | Json.List items ->
          List.fold_right
            (fun item acc ->
              match (item, acc) with
              | Json.String s, Some l -> Some (s :: l)
              | _ -> None)
            items (Some [])
        | _ -> None);
    }
  in
  let priority =
    {
      what = {|"high", "normal" or "low"|};
      get =
        (function
        | Json.String "high" -> Some High
        | Json.String "normal" -> Some Normal
        | Json.String "low" -> Some Low
        | _ -> None);
    }
  in
  let* kind = req "kind" string json in
  let* design = opt "design" string json in
  let* engine = opt "engine" string json in
  let* cycles = opt "cycles" count json in
  let* runs = opt "runs" count json in
  let* seed = opt "seed" int json in
  let* fuzz_count = opt "count" count json in
  let* engines = opt "engines" strings json in
  let* deep = opt "deep" bool json in
  let* shrink = opt "shrink" bool json in
  let* max_faults = opt "max_faults" count json in
  let* timeout = opt "timeout" seconds json in
  let* label = opt "label" string json in
  let* prio = opt "priority" priority json in
  (* [design] is required by every design-bound kind, but a fuzz
     campaign generates its own designs. *)
  let design () =
    Option.to_result design ~none:{|missing required field "design"|}
  in
  let seed = Option.value seed ~default:1 in
  let cycles ~default = Option.value cycles ~default in
  let* job =
    match kind with
    | "simulate" ->
      let* sim_design = design () in
      Ok
        (Simulate
           {
             sim_design;
             sim_engine = Option.value engine ~default:"interp";
             sim_cycles = cycles ~default:200;
             sim_seed = seed;
           })
    | "seu" ->
      let* seu_design = design () in
      Ok
        (Seu
           {
             seu_design;
             seu_engine = Option.value engine ~default:"compiled";
             seu_runs = Option.value runs ~default:1000;
             seu_cycles = cycles ~default:64;
             seu_seed = seed;
           })
    | "stuck-at" | "stuck_at" ->
      let* sa_design = design () in
      Ok
        (Stuck_at
           {
             sa_design;
             sa_cycles = cycles ~default:64;
             sa_seed = seed;
             sa_max_faults = max_faults;
           })
    | "engine-sweep" | "sweep" ->
      let* sw_design = design () in
      Ok (Engine_sweep { sw_design; sw_cycles = cycles ~default:200 })
    | "fuzz" ->
      Ok
        (Fuzz
           {
             fu_seed = seed;
             fu_count = Option.value fuzz_count ~default:25;
             fu_engines = engines;
             fu_deep = Option.value deep ~default:false;
             fu_shrink = Option.value shrink ~default:true;
           })
    | other -> Error (Printf.sprintf "unknown job kind %S" other)
  in
  Ok
    {
      rq_job = job;
      rq_priority = Option.value prio ~default:Normal;
      rq_timeout = timeout;
      rq_label = label;
    }

(* --- preparation ---------------------------------------------------------- *)

type prepared = {
  pr_key : string;
  pr_corr : string;
  pr_label : string;
  pr_artifact_file : string;
  pr_run : progress:(unit -> unit) -> Ocapi_obs.Json.t;
}

(* The dedup key is a [Flow.Cache.key_of] fingerprint with the job kind
   and parameters folded into the engine component.  The design is built
   here and owned by the prepared closure from then on. *)
let prepare_request r =
  let key, default_label, run =
    match r.rq_job with
    | Simulate { sim_design; sim_engine; sim_cycles; sim_seed } ->
      let sys = find_design sim_design in
      let engine = Ocapi_engine.name_of (Ocapi_engine.get sim_engine) in
      let key =
        Flow.Cache.key_of
          ~engine:("batch-sim+" ^ engine)
          ~seed:sim_seed sys ~cycles:sim_cycles
      in
      ( key,
        Printf.sprintf "simulate:%s:%s:c%d" sim_design engine sim_cycles,
        fun ~progress ->
          Flow.simulate ~engine ~seed:sim_seed ~corr:(corr_of_key key)
            ~progress:(fun _ -> progress ())
            sys ~cycles:sim_cycles
          |> Flow.simulate_result_json ~engine ~cycles:sim_cycles )
    | Seu { seu_design; seu_engine; seu_runs; seu_cycles; seu_seed } ->
      let sys = find_design seu_design in
      let engine = Ocapi_engine.name_of (Ocapi_engine.get seu_engine) in
      ( Flow.Cache.key_of
          ~engine:
            (Printf.sprintf "batch-seu+%s+runs%d" engine seu_runs)
          ~seed:seu_seed sys ~cycles:seu_cycles,
        Printf.sprintf "seu:%s:%s:r%d" seu_design engine seu_runs,
        fun ~progress ->
          Ocapi_fault.seu_campaign ~engine ~runs:seu_runs ~seed:seu_seed
            ~progress:(fun _ -> progress ())
            sys ~cycles:seu_cycles
          |> Ocapi_fault.seu_report_json )
    | Stuck_at { sa_design; sa_cycles; sa_seed; sa_max_faults } ->
      let sys = find_design sa_design in
      ( Flow.Cache.key_of
          ~engine:
            (Printf.sprintf "batch-sa+mf%s"
               (match sa_max_faults with
               | Some n -> string_of_int n
               | None -> "-"))
          ~seed:sa_seed sys ~cycles:sa_cycles,
        Printf.sprintf "stuck-at:%s:c%d" sa_design sa_cycles,
        fun ~progress ->
          Ocapi_fault.stuck_at_system ?max_faults:sa_max_faults ~seed:sa_seed
            ~progress:(fun _ -> progress ())
            sys ~cycles:sa_cycles
          |> Ocapi_fault.stuck_report_json )
    | Engine_sweep { sw_design; sw_cycles } ->
      let sys = find_design sw_design in
      ( Flow.Cache.key_of
          ~engine:
            ("batch-sweep+" ^ String.concat "," (Ocapi_engine.names ()))
          ~seed:0 sys ~cycles:sw_cycles,
        Printf.sprintf "engine-sweep:%s:c%d" sw_design sw_cycles,
        fun ~progress ->
          Flow.engine_disagreements ~progress:(fun _ -> progress ()) sys
            ~cycles:sw_cycles
          |> Flow.mismatches_json ~cycles:sw_cycles )
    | Fuzz { fu_seed; fu_count; fu_engines; fu_deep; fu_shrink } ->
      (* No single design to fingerprint: the campaign's identity is its
         parameters (the generator is pure in them), so the dedup key is
         a literal string.  Engines are resolved here so a bad roster
         fails at admission, not on a worker. *)
      let engines =
        match fu_engines with
        | None -> Ocapi_diff.default_engines ()
        | Some names ->
          List.map
            (fun n -> Ocapi_engine.name_of (Ocapi_engine.get n))
            names
      in
      ( Printf.sprintf "batch-fuzz|seed%d|count%d|%s|deep%b|shrink%b" fu_seed
          fu_count (String.concat "," engines) fu_deep fu_shrink,
        Printf.sprintf "fuzz:s%d:n%d" fu_seed fu_count,
        fun ~progress ->
          Ocapi_diff.fuzz ~engines ~deep:fu_deep ~shrink_failures:fu_shrink
            ~progress:(fun _ -> progress ())
            ~seed:fu_seed ~count:fu_count ()
          |> Ocapi_diff.report_json )
  in
  let label = Option.value r.rq_label ~default:default_label in
  let slug =
    String.map (fun c -> if c = ':' || c = '/' || c = ' ' then '-' else c) label
  in
  {
    pr_key = key;
    pr_corr = corr_of_key key;
    pr_label = label;
    pr_artifact_file =
      Printf.sprintf "%s-%s.json" slug
        (String.sub (Digest.to_hex (Digest.string key)) 0 8);
    pr_run = run;
  }
