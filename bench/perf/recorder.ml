(* The span recorder of traced runs.

   Spans are recorded from the benchmark's own code, around its calls
   into the library layers; the library's internal instrumentation
   ([Ocapi_obs.enable]) stays off, so a traced run executes the same
   program as an untraced one.  Spans live in memory and are written
   once, as Chrome trace events, when the run ends.  Only the main
   domain records spans. *)

module Json = Ocapi_obs.Json

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;  (** layer call, e.g. ["engine.step"] *)
  key : string;  (** what it ran on, e.g. ["gate.dect"] *)
  op : string;  (** workload operation the span belongs to *)
  work : int;  (** items of work done inside, e.g. cycles stepped *)
  harness : bool;  (** the benchmark's own bookkeeping, not a layer *)
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref ""

let set_op op = current_op := op

let parent () = match !stack with p :: _ -> p | [] -> -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [span name f] runs [f] inside a span when recording is on and is a
   plain call otherwise.  Children must complete inside their parent,
   which holds because every span wraps a synchronous call. *)
let span ?(key = "") ?(work = 0) ?(harness = false) name f =
  if not !on then f ()
  else begin
    let parent = parent () and id = fresh_id () in
    stack := id :: !stack;
    let t0 = Mono.now () in
    let finish () =
      stack := List.tl !stack;
      recorded :=
        { id; parent; name; key; op = !current_op; work; harness; t0; t1 = Mono.now () }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded

(* Self time: a span's duration minus the part covered by its
   children. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !recorded;
  List.map
    (fun s ->
      ( s,
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      ))
    (spans ())

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write_chrome ~path =
  let all = spans () in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String (if s.harness then "harness" else "layer"));
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.t0 -. base) *. 1e6));
        ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("key", Json.String s.key);
              ("op", Json.String s.op);
              ("work", Json.Int s.work);
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
            ] );
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.List (List.map event all));
                ("displayTimeUnit", Json.String "ms");
              ]));
      output_char oc '\n')
