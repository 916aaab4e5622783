(* BENCHMARK.json: the declared workloads and metrics, the name rules,
   and the run-to-run comparison built on the declared bounds. *)

module Json = Ocapi_obs.Json

type metric = { name : string; unit_ : string; better : string; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let ( let* ) = Result.bind

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let read_json path =
  match Common.read_file path with
  | exception Sys_error e -> Error e
  | text -> Json.of_string text

let load path =
  let* j = Result.map_error (fun e -> path ^ ": " ^ e) (read_json path) in
  let list field =
    match Json.member field j with
    | Some (Json.List l) -> Ok l
    | _ -> Error (Printf.sprintf "%s: %S must be a list" path field)
  in
  let str field o =
    match Json.member field o with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "%s: every entry needs a string %S" path field)
  in
  let metric o =
    let* name = str "name" o in
    let* unit_ = str "unit" o in
    let* better = str "better" o in
    let bound =
      match Json.member "bound" o with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int n) -> Some (float_of_int n)
      | _ -> None
    in
    Ok { name; unit_; better; bound }
  in
  let all f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      l (Ok [])
  in
  let* workloads = list "workloads" in
  let* workloads = all (str "name") workloads in
  let* e2e = list "end_to_end" in
  let* end_to_end = all metric e2e in
  let* layers = list "per_layer" in
  let* per_layer = all metric layers in
  let names = workloads @ List.map (fun m -> m.name) (end_to_end @ per_layer) in
  match List.find_opt (fun n -> not (valid_name n)) names with
  | Some bad -> Error (Printf.sprintf "%s: name %S is not [A-Za-z0-9_.-]+" path bad)
  | None -> Ok { workloads; end_to_end; per_layer }

(* ---- --compare ----------------------------------------------------------- *)

(* A results file holds one JSON record per line, as [--out] appends
   them: {"workload", "seed", "trace", "result"}. *)
let load_results path =
  match Common.read_file path with
  | exception Sys_error e -> Error e
  | text ->
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.fold_left
         (fun acc l ->
           let* acc = acc in
           let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Json.of_string l) in
           Ok (j :: acc))
         (Ok [])
    |> Result.map List.rev

let values records ~workload ~metric =
  List.filter_map
    (fun r ->
      match (Json.member "workload" r, Json.member "trace" r) with
      | Some (Json.String w), Some (Json.Int 0) when w = workload -> (
        match
          Option.bind (Json.member "result" r) (fun res ->
              Option.bind (Json.member "metrics" res) (fun m ->
                  Option.bind (Json.member metric m) (Json.member "value")))
        with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int n) -> Some (float_of_int n)
        | _ -> None)
      | _ -> None)
    records

(* One row per (workload, end-to-end metric): both medians, B's change
   against A in the metric's worse direction, both spreads, and a
   verdict.  A row passes when B is not worse by more than the bound and
   both spreads stay within it (set-up time's spread is not judged). *)
let compare ~spec a b =
  let* ra = load_results a in
  let* rb = load_results b in
  Printf.printf "%-9s %-22s %14s %14s %8s %7s %7s %6s  %s\n" "workload" "metric" "median A"
    "median B" "worse" "sprdA" "sprdB" "bound" "verdict";
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let va = values ra ~workload:w ~metric:m.name
          and vb = values rb ~workload:w ~metric:m.name in
          if va <> [] || vb <> [] then begin
            let ma = Stats.median va and mb = Stats.median vb in
            let worse = if m.better = "lower" then (mb -. ma) /. ma else (ma -. mb) /. ma in
            let bound = Option.value m.bound ~default:Float.nan in
            let sa = Stats.spread va and sb = Stats.spread vb in
            (* fewer than two runs have no spread to judge *)
            let spread_ok s = m.name = "setup_s" || Float.is_nan s || s <= bound in
            let pass =
              va <> [] && vb <> [] && worse <= bound && spread_ok sa && spread_ok sb
            in
            if not pass then ok := false;
            Printf.printf "%-9s %-22s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%% %5.1f%%  %s\n" w
              m.name ma mb (100. *. worse) (100. *. sa) (100. *. sb) (100. *. bound)
              (if pass then "ok" else "OUT OF BOUND")
          end)
        spec.end_to_end)
    spec.workloads;
  Ok !ok
