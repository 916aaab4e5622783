(* Process-wide telemetry: metric registry + Chrome trace-event spans.
   Everything here must stay allocation-light on the disabled path —
   the engines call into this module from their per-cycle hot loops. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else begin
          (* Shortest representation that still round-trips: a value
             parsed back and re-serialized must produce the same bytes
             (the determinism gate compares ledger/event-log files). *)
          let s15 = Printf.sprintf "%.15g" f in
          if float_of_string s15 = f then Buffer.add_string buf s15
          else
            let s16 = Printf.sprintf "%.16g" f in
            if float_of_string s16 = f then Buffer.add_string buf s16
            else Buffer.add_string buf (Printf.sprintf "%.17g" f)
        end
      else Buffer.add_string buf "null"
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buffer buf j;
    Buffer.contents buf

  (* A recursive-descent parser for the same subset the serializer
     emits (strict JSON; no comments, no trailing commas).  The batch
     job-manifest reader and the tests use it; keeping it here spares
     the repo an external JSON dependency. *)
  exception Parse of string

  (* Containers may nest this deep before the parser gives up.  The cap
     turns adversarially deep input ("[[[[…") into an [Error] instead of
     a stack overflow that would take the whole process down. *)
  let max_depth = 255

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let error msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> error (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        value
      end
      else error (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then error "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then error "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; loop ()
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '/' -> Buffer.add_char buf '/'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | 't' -> Buffer.add_char buf '\t'; loop ()
          | 'r' -> Buffer.add_char buf '\r'; loop ()
          | 'b' -> Buffer.add_char buf '\b'; loop ()
          | 'f' -> Buffer.add_char buf '\012'; loop ()
          | 'u' ->
            if !pos + 4 > n then error "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error "invalid \\u escape"
            in
            (* Escaped control characters round-trip; other code points
               are emitted as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end;
            loop ()
          | _ -> error "invalid escape")
        | c -> Buffer.add_char buf c; loop ()
      in
      loop ()
    in
    let parse_number () =
      let start = !pos in
      let is_int = ref true in
      let rec loop () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          loop ()
        | Some ('.' | 'e' | 'E') ->
          is_int := false;
          advance ();
          loop ()
        | _ -> ()
      in
      loop ();
      let text = String.sub s start (!pos - start) in
      if !is_int then
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error "invalid number")
      else
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> error "invalid number"
    in
    let rec parse_value depth =
      if depth > max_depth then error "nesting too deep";
      skip_ws ();
      match peek () with
      | None -> error "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> error "expected ',' or ']'"
          in
          items []
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field acc =
            skip_ws ();
            let k = parse_string () in
            (* Duplicate keys silently shadow under [member]'s assoc
               lookup; reject them outright so a hand-edited manifest or
               ledger line fails loudly instead of half-applying. *)
            if List.mem_assoc k acc then
              error (Printf.sprintf "duplicate key %S" k);
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let rec fields acc =
            let kv = field acc in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (kv :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev (kv :: acc))
            | _ -> error "expected ',' or '}'"
          in
          fields []
        end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> error (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then error "trailing characters";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* --- files ----------------------------------------------------------------- *)

(* Every file the environment reads or writes goes through these
   functions.  They work on [Unix] descriptors so that each failure,
   whichever call it comes from, is one [Unix_error] code, reported as
   "<path>: <reason>". *)
module File = struct
  let failed path e = Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

  let rec make_dirs dir =
    if not (Sys.file_exists dir) then begin
      make_dirs (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let mkdir_p dir =
    match make_dirs dir with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> failed dir e

  let with_fd path flags f =
    let fd = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o666 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> f fd)

  let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

  let read_fd fd =
    let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    in
    go ()

  let read path =
    match with_fd path [ Unix.O_RDONLY ] read_fd with
    | text -> Ok text
    | exception Unix.Unix_error (e, _, _) -> failed path e

  let decode path lines f =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (n, line) :: rest -> (
        match Result.bind line f with
        | Ok v -> go (v :: acc) rest
        | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
    in
    go [] lines

  let read_jsonl path =
    Result.map
      (fun text ->
        String.split_on_char '\n' text
        |> List.mapi (fun i line -> (i + 1, String.trim line))
        |> List.filter_map (fun (n, line) ->
               if line = "" || line.[0] = '#' then None
               else Some (n, Json.of_string line)))
      (read path)

  let drop_torn_tail lines =
    match List.rev lines with
    | (_, Error _) :: earlier -> List.rev earlier
    | _ -> lines

  (* A writer killed mid-line leaves bytes after the last newline.  The
     next append cuts them, so a torn line is only ever the final one. *)
  let cut_torn_tail fd =
    let size = (Unix.fstat fd).Unix.st_size and last = Bytes.create 1 in
    if size > 0 then begin
      ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
      if Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n' then begin
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        let text = read_fd fd in
        Unix.ftruncate fd
          (match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0)
      end
    end

  (* Appenders in this process queue on [appending], those in other
     processes on a [lockf] of the file, so lines of any length go out
     whole and a tail is cut only while no one else writes. *)
  let appending = Mutex.create ()

  let append_line path line =
    match
      make_dirs (Filename.dirname path);
      Mutex.protect appending (fun () ->
          with_fd path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] (fun fd ->
              Unix.lockf fd Unix.F_LOCK 0;
              cut_torn_tail fd;
              write_all fd (line ^ "\n")))
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) -> failed path e

  (* Written whole under a name unique per process and domain, then
     renamed into place: a reader sees the old file or the new one,
     never a torn one.  The job runner's cleanup of killed workers
     matches this temp name. *)
  let publish path data =
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Domain.self () :> int)
    in
    match
      make_dirs (Filename.dirname path);
      with_fd tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun fd ->
          write_all fd data);
      Unix.rename tmp path
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      failed path e
end

(* --- master switch ------------------------------------------------------- *)

(* Atomic so every domain reads one coherent flag; workers spawned while
   telemetry is enabled instrument themselves into their own domain-local
   registry (below) without any further coordination. *)
let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* --- metric registry ----------------------------------------------------- *)

type histogram = {
  h_bounds : float array;  (* ascending upper bounds *)
  h_counts : int array;  (* length = bounds + 1; last = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | M_counter of int ref
  | M_gauge of float ref
  | M_hist of histogram

(* One registry per domain (Domain.DLS): the hot instrumentation paths
   stay lock-free, and the counters a worker domain accumulates are
   merged into its parent's registry at join via [export_domain] /
   [absorb_domain].  Single-domain programs see exactly the old
   process-wide behaviour. *)
let registry_key : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

let kind_clash name =
  invalid_arg
    ("Ocapi_obs: metric " ^ name
   ^ " already registered with a different kind (counter, gauge and \
      histogram names must not overlap)")

let counter_ref name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some (M_counter r) -> r
  | Some _ -> kind_clash name
  | None ->
    let r = ref 0 in
    Hashtbl.replace registry name (M_counter r);
    r

let gauge_ref name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some (M_gauge r) -> r
  | Some _ -> kind_clash name
  | None ->
    let r = ref 0. in
    Hashtbl.replace registry name (M_gauge r);
    r

let default_buckets =
  Array.init 21 (fun i -> Float.of_int (1 lsl i)) (* 1 .. 2^20 *)

let hist ?(buckets = default_buckets) name =
  let registry = registry () in
  match Hashtbl.find_opt registry name with
  | Some (M_hist h) -> h
  | Some _ -> kind_clash name
  | None ->
    let h =
      {
        h_bounds = Array.copy buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_sum = 0.;
        h_min = infinity;
        h_max = neg_infinity;
      }
    in
    Hashtbl.replace registry name (M_hist h);
    h

let count ?(n = 1) name =
  if Atomic.get on then begin
    let r = counter_ref name in
    r := !r + n
  end

let set_gauge name v = if Atomic.get on then gauge_ref name := v

let max_gauge name v =
  if Atomic.get on then begin
    let r = gauge_ref name in
    if v > !r then r := v
  end

let observe ?buckets name v =
  if Atomic.get on then begin
    let h = hist ?buckets name in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let n = Array.length h.h_bounds in
    let i = ref 0 in
    while !i < n && v > h.h_bounds.(!i) do
      incr i
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1
  end

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

(* Quantile estimate from the bucketed counts: find the bucket holding
   the q-th observation and interpolate linearly inside it, clamping to
   the recorded min/max so small samples never report a bucket edge far
   from any real observation. *)
let hist_quantile hs q =
  if hs.hs_count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int hs.hs_count in
    let rec find lower cum = function
      | [] -> hs.hs_max
      | (bound, n) :: rest ->
        let cum' = cum +. float_of_int n in
        if n > 0 && cum' >= target then
          if Float.is_finite bound then begin
            let inside = (target -. cum) /. float_of_int n in
            let lo = Float.max lower hs.hs_min in
            let hi = Float.min bound hs.hs_max in
            Float.max lo (Float.min hi (lo +. ((hi -. lo) *. inside)))
          end
          else hs.hs_max
        else find (if Float.is_finite bound then bound else lower) cum' rest
    in
    find hs.hs_min 0.0 hs.hs_buckets
  end

let snapshot () =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | M_counter r -> Counter_v !r
        | M_gauge r -> Gauge_v !r
        | M_hist h ->
          let buckets =
            List.init
              (Array.length h.h_counts)
              (fun i ->
                let bound =
                  if i < Array.length h.h_bounds then h.h_bounds.(i)
                  else infinity
                in
                (bound, h.h_counts.(i)))
          in
          Histogram_v
            {
              hs_count = h.h_count;
              hs_sum = h.h_sum;
              hs_min = h.h_min;
              hs_max = h.h_max;
              hs_buckets = buckets;
            }
      in
      (name, v) :: acc)
    (registry ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let value_json = function
  | Counter_v n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge_v v -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
  | Histogram_v h ->
    Json.Obj
      [
        ("type", Json.String "histogram");
        ("count", Json.Int h.hs_count);
        ("sum", Json.Float h.hs_sum);
        ("min", Json.Float h.hs_min);
        ("max", Json.Float h.hs_max);
        ( "buckets",
          Json.List
            (List.filter_map
               (fun (bound, n) ->
                 if n = 0 then None
                 else
                   Some
                     (Json.Obj [ ("le", Json.Float bound); ("n", Json.Int n) ]))
               h.hs_buckets) );
      ]

let metrics_json () =
  Json.Obj (List.map (fun (name, v) -> (name, value_json v)) (snapshot ()))

let reset_metrics () = Hashtbl.reset (registry ())

(* --- span tracing --------------------------------------------------------- *)

type trace_event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char;  (* 'X' complete | 'i' instant *)
  ev_ts : float;  (* us since epoch *)
  ev_dur : float;  (* us; 0 for instants *)
  ev_args : (string * Json.t) list;
  ev_tid : int;  (* producing domain *)
}

let max_events = 1_000_000

(* One trace buffer per domain, like the metric registry.  [ev_tid]
   records the producing domain so merged traces keep one Perfetto
   track per worker.  The epoch is process-wide: it is (re)set by
   [clear_trace]/[reset] on the coordinating domain before workers
   spawn, so all domains share one time base. *)
type trace_buf = {
  mutable tb_events : trace_event list;  (* reversed *)
  mutable tb_count : int;
  mutable tb_dropped : int;
}

let trace_key : trace_buf Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tb_events = []; tb_count = 0; tb_dropped = 0 })

let trace_buf () = Domain.DLS.get trace_key
let epoch_us = Atomic.make 0.

let now_us () = Unix.gettimeofday () *. 1e6

let clear_trace () =
  let tb = trace_buf () in
  tb.tb_events <- [];
  tb.tb_count <- 0;
  tb.tb_dropped <- 0;
  Atomic.set epoch_us (now_us ())

let push ev =
  let tb = trace_buf () in
  if tb.tb_count >= max_events then tb.tb_dropped <- tb.tb_dropped + 1
  else begin
    tb.tb_events <- ev :: tb.tb_events;
    tb.tb_count <- tb.tb_count + 1
  end

let span_begin () = if Atomic.get on then now_us () else Float.nan

let span_end ?(cat = "ocapi") ?(args = []) name t0 =
  if Atomic.get on && not (Float.is_nan t0) then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'X';
        ev_ts = t0 -. Atomic.get epoch_us;
        ev_dur = now_us () -. t0;
        ev_args = args;
        ev_tid = (Domain.self () :> int);
      }

let with_span ?cat ?args name f =
  let t0 = span_begin () in
  Fun.protect ~finally:(fun () -> span_end ?cat ?args name t0) f

let instant ?(cat = "ocapi") ?(args = []) name =
  if Atomic.get on then
    push
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'i';
        ev_ts = now_us () -. Atomic.get epoch_us;
        ev_dur = 0.;
        ev_args = args;
        ev_tid = (Domain.self () :> int);
      }

let event_count () = (trace_buf ()).tb_count
let dropped_events () = (trace_buf ()).tb_dropped

let event_json ev =
  let base =
    [
      ("name", Json.String ev.ev_name);
      ("cat", Json.String ev.ev_cat);
      ("ph", Json.String (String.make 1 ev.ev_ph));
      ("ts", Json.Float ev.ev_ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let base = if ev.ev_ph = 'X' then base @ [ ("dur", Json.Float ev.ev_dur) ] else base in
  let base = if ev.ev_ph = 'i' then base @ [ ("s", Json.String "g") ] else base in
  let base =
    if ev.ev_args = [] then base else base @ [ ("args", Json.Obj ev.ev_args) ]
  in
  Json.Obj base

let trace_json () =
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ("otherData", Json.Obj [ ("generator", Json.String "ocapi-ml telemetry");
                                  ("droppedEvents", Json.Int (trace_buf ()).tb_dropped) ]);
         ("traceEvents", Json.List (List.rev_map event_json (trace_buf ()).tb_events));
       ])

(* --- cross-domain merge ---------------------------------------------------- *)

type domain_export = {
  de_metrics : (string * value) list;
  de_events : trace_event list;  (* reversed *)
  de_dropped : int;
}

let export_domain () =
  let tb = trace_buf () in
  { de_metrics = snapshot (); de_events = tb.tb_events;
    de_dropped = tb.tb_dropped }

let absorb_domain ex =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n ->
        let r = counter_ref name in
        r := !r + n
      | Gauge_v v ->
        (* High-water semantics: without an ordering between domains the
           only associative, commutative merge of a gauge is its max. *)
        let r = gauge_ref name in
        if v > !r then r := v
      | Histogram_v hs ->
        let bounds =
          Array.of_list
            (List.filter_map
               (fun (b, _) -> if b = infinity then None else Some b)
               hs.hs_buckets)
        in
        let h = hist ~buckets:bounds name in
        h.h_count <- h.h_count + hs.hs_count;
        h.h_sum <- h.h_sum +. hs.hs_sum;
        if hs.hs_min < h.h_min then h.h_min <- hs.hs_min;
        if hs.hs_max > h.h_max then h.h_max <- hs.hs_max;
        List.iteri
          (fun i (_, n) ->
            if i < Array.length h.h_counts then
              h.h_counts.(i) <- h.h_counts.(i) + n)
          hs.hs_buckets)
    ex.de_metrics;
  let tb = trace_buf () in
  tb.tb_dropped <- tb.tb_dropped + ex.de_dropped;
  List.iter push (List.rev ex.de_events)

(* --- reports --------------------------------------------------------------- *)

let reset () =
  disable ();
  reset_metrics ();
  clear_trace ()

type report = {
  rp_label : string;
  rp_seconds : float;
  rp_metrics : (string * value) list;
  rp_events : int;
}

let run_with_telemetry ~label f =
  let was = Atomic.get on in
  reset ();
  enable ();
  let t0 = Unix.gettimeofday () in
  let finish () =
    let seconds = Unix.gettimeofday () -. t0 in
    let report =
      {
        rp_label = label;
        rp_seconds = seconds;
        rp_metrics = snapshot ();
        rp_events = (trace_buf ()).tb_count;
      }
    in
    Atomic.set on was;
    report
  in
  match f () with
  | x -> (x, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let report_json r =
  Json.Obj
    [
      ("label", Json.String r.rp_label);
      ("wall_seconds", Json.Float r.rp_seconds);
      ("trace_events", Json.Int r.rp_events);
      ( "metrics",
        Json.Obj (List.map (fun (name, v) -> (name, value_json v)) r.rp_metrics)
      );
    ]

let pp_value ppf = function
  | Counter_v n -> Format.fprintf ppf "%d" n
  | Gauge_v v -> Format.fprintf ppf "%g" v
  | Histogram_v h ->
    if h.hs_count = 0 then Format.fprintf ppf "histogram (empty)"
    else
      Format.fprintf ppf "n=%d sum=%g min=%g max=%g mean=%g" h.hs_count h.hs_sum
        h.hs_min h.hs_max
        (h.hs_sum /. float_of_int h.hs_count)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>telemetry %s: %.3fs wall, %d trace events@,"
    r.rp_label r.rp_seconds r.rp_events;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-36s %a@," name pp_value v)
    r.rp_metrics;
  Format.fprintf ppf "@]"

(* --- structured event log -------------------------------------------------- *)

module Events = struct
  type event = {
    e_seq : int;
    e_ts : float;  (* unix seconds at emission *)
    e_kind : string;
    e_corr : string;
    e_fields : (string * Json.t) list;
  }

  (* Events are per-job lifecycle markers, not per-cycle telemetry: a
     campaign emits a handful per job, so one process-wide mutex-guarded
     buffer is cheap and keeps a single total order across domains. *)
  let on = Atomic.make false
  let enabled () = Atomic.get on
  let set_enabled b = Atomic.set on b
  let lock = Mutex.create ()
  let buffer = ref [] (* reversed *)
  let next_seq = ref 0

  let clear () =
    Mutex.protect lock (fun () ->
        buffer := [];
        next_seq := 0)

  let emit ?(corr = "") ?(fields = []) kind =
    if Atomic.get on then
      Mutex.protect lock (fun () ->
          incr next_seq;
          buffer :=
            {
              e_seq = !next_seq;
              e_ts = Unix.gettimeofday ();
              e_kind = kind;
              e_corr = corr;
              e_fields = fields;
            }
            :: !buffer)

  let events () = Mutex.protect lock (fun () -> List.rev !buffer)

  let base_fields e =
    ("event", Json.String e.e_kind)
    :: ((if e.e_corr = "" then [] else [ ("corr", Json.String e.e_corr) ])
       @ e.e_fields)

  let to_json ?(ts = true) e =
    let fields = ("seq", Json.Int e.e_seq) :: base_fields e in
    Json.Obj
      (if ts then fields @ [ ("ts", Json.Float e.e_ts) ] else fields)

  (* Lifecycle rank inside one correlation id: submission before start
     before the run before crash/retry before completion, whatever
     wall-clock order the worker domains (or the campaign service's
     worker processes) produced. *)
  let kind_rank = function
    | "job_submitted" -> 0
    | "job_deduped" -> 1
    | "job_rejected" -> 2
    | "job_started" -> 3
    | "run_started" -> 4
    | "run_finished" -> 5
    | "worker_crashed" -> 6
    | "job_retried" -> 7
    | "job_completed" | "job_failed" | "job_cancelled" -> 8
    | _ -> 9

  (* Canonical form: wall-clock stamps dropped, events sorted by
     (corr, lifecycle rank, rendered fields), seq renumbered.  Two runs
     of the same campaign — serial or parallel, whatever the domain
     interleaving — canonicalize to byte-identical JSONL. *)
  let canonicalize evs =
    List.stable_sort
      (fun a b ->
        compare
          (a.e_corr, kind_rank a.e_kind, Json.to_string (Json.Obj (base_fields a)))
          (b.e_corr, kind_rank b.e_kind, Json.to_string (Json.Obj (base_fields b))))
      evs
    |> List.mapi (fun i e -> { e with e_seq = i + 1; e_ts = 0. })

  let canonical_jsonl () =
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        Json.to_buffer buf (to_json ~ts:false e);
        Buffer.add_char buf '\n')
      (canonicalize (events ()));
    Buffer.contents buf

  let load path =
    if not (Sys.file_exists path) then Ok (Ok [])
    else
      Result.map
        (fun lines -> File.decode path lines Result.ok)
        (File.read_jsonl path)
end

(* --- perf ledger ------------------------------------------------------------ *)

module Ledger = struct
  type entry = {
    en_bench : string;
    en_engine : string;
    en_digest : string;
    en_value : float;  (* a rate: bigger is better *)
    en_unit : string;
    en_commit : string;
    en_host : string;
    en_domains : int;
    en_ts : float;
  }

  let default_path () =
    match Sys.getenv_opt "OCAPI_LEDGER" with
    | Some p when p <> "" -> p
    | _ -> "PERF_LEDGER.jsonl"

  (* The current commit id without shelling out to git: follow
     [.git/HEAD] one level, falling back to [packed-refs] for repos
     whose loose ref has been packed away.  "unknown" when not run from
     a checkout (or with [OCAPI_COMMIT] unset in a bare environment). *)
  let git_commit () =
    match Sys.getenv_opt "OCAPI_COMMIT" with
    | Some c when c <> "" -> c
    | _ -> (
      let first_line path =
        Result.to_option (File.read path)
        |> Option.map (fun text ->
               String.trim (List.hd (String.split_on_char '\n' text)))
      in
      let resolve_ref r =
        match first_line (Filename.concat ".git" r) with
        | Some sha -> sha
        | None ->
          List.find_map
            (fun line ->
              match String.index_opt line ' ' with
              | Some i when String.sub line (i + 1) (String.length line - i - 1) = r
                ->
                Some (String.sub line 0 i)
              | _ -> None)
            (String.split_on_char '\n'
               (Result.value (File.read ".git/packed-refs") ~default:""))
          |> Option.value ~default:"unknown"
      in
      match first_line ".git/HEAD" with
      | None -> "unknown"
      | Some head ->
        let id =
          if String.length head > 5 && String.sub head 0 5 = "ref: " then
            resolve_ref (String.sub head 5 (String.length head - 5))
          else head
        in
        if String.length id > 12 then String.sub id 0 12 else id)

  let entry ?(digest = "") ?(unit_ = "") ?domains ~bench ~engine value =
    {
      en_bench = bench;
      en_engine = engine;
      en_digest = digest;
      en_value = value;
      en_unit = unit_;
      en_commit = git_commit ();
      en_host = (try Unix.gethostname () with _ -> "unknown");
      en_domains =
        (match domains with
        | Some d -> d
        | None -> Domain.recommended_domain_count ());
      en_ts = Unix.gettimeofday ();
    }

  let entry_json e =
    Json.Obj
      [
        ("bench", Json.String e.en_bench);
        ("engine", Json.String e.en_engine);
        ("digest", Json.String e.en_digest);
        ("value", Json.Float e.en_value);
        ("unit", Json.String e.en_unit);
        ("commit", Json.String e.en_commit);
        ("host", Json.String e.en_host);
        ("domains", Json.Int e.en_domains);
        ("ts", Json.Float e.en_ts);
      ]

  let entry_of_json j =
    let str k =
      match Json.member k j with Some (Json.String s) -> Some s | _ -> None
    in
    let num k =
      match Json.member k j with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    match (str "bench", str "engine", num "value") with
    | Some bench, Some engine, Some value ->
      Ok
        {
          en_bench = bench;
          en_engine = engine;
          en_digest = Option.value ~default:"" (str "digest");
          en_value = value;
          en_unit = Option.value ~default:"" (str "unit");
          en_commit = Option.value ~default:"" (str "commit");
          en_host = Option.value ~default:"" (str "host");
          en_domains =
            (match Json.member "domains" j with
            | Some (Json.Int d) -> d
            | _ -> 0);
          en_ts = Option.value ~default:0. (num "ts");
        }
    | _ -> Error "ledger entry needs string bench/engine and numeric value"

  (* One whole line per entry, appended: concurrent appenders, in this
     process or another, never lose or tear each other's lines, and
     nothing rewrites the file. *)
  let append ?path e =
    let path = match path with Some p -> p | None -> default_path () in
    File.append_line path (Json.to_string (entry_json e))

  (* A writer killed mid-append leaves a torn final line; it is dropped,
     as the job journal drops its own. *)
  let load ?path () =
    let path = match path with Some p -> p | None -> default_path () in
    if not (Sys.file_exists path) then Ok (Ok [])
    else
      Result.map
        (fun lines -> File.decode path (File.drop_torn_tail lines) entry_of_json)
        (File.read_jsonl path)

  let median = function
    | [] -> Float.nan
    | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

  (* A series is one measured quantity over time.  The key is
     (bench, engine, digest) — deliberately {e not} the hostname: CI
     runners get a fresh hostname every run, and a baseline that never
     matches is no baseline at all.  Cross-machine noise is what the
     tolerance absorbs. *)
  let series_of entries =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun e ->
        let k = (e.en_bench, e.en_engine, e.en_digest) in
        match Hashtbl.find_opt tbl k with
        | Some r -> r := e :: !r
        | None ->
          Hashtbl.add tbl k (ref [ e ]);
          order := k :: !order)
      entries;
    List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

  type status = Fresh | Steady | Improved | Regressed | Collapsed

  let status_label = function
    | Fresh -> "fresh"
    | Steady -> "steady"
    | Improved -> "improved"
    | Regressed -> "regressed"
    | Collapsed -> "collapsed"

  type verdict = {
    v_bench : string;
    v_engine : string;
    v_digest : string;
    v_latest : entry;
    v_baseline : float;  (* nan when Fresh *)
    v_window : int;  (* prior entries behind the baseline *)
    v_delta : float;  (* (latest - baseline) / baseline; nan when Fresh *)
    v_status : status;
  }

  let verdicts ?(window = 5) ?(tolerance = 0.2) ?(hard_tolerance = 0.5) entries
      =
    series_of entries
    |> List.map (fun ((bench, engine, digest), history) ->
           match List.rev history with
           | [] -> assert false (* series_of never yields an empty series *)
           | latest :: prior_rev ->
             let prior = List.filteri (fun i _ -> i < window) prior_rev in
             let n = List.length prior in
             let baseline, delta, status =
               if n = 0 then (Float.nan, Float.nan, Fresh)
               else begin
                 let base = median (List.map (fun e -> e.en_value) prior) in
                 let delta = (latest.en_value -. base) /. base in
                 let delta = if Float.is_finite delta then delta else 0. in
                 let status =
                   if delta <= -.hard_tolerance then Collapsed
                   else if delta <= -.tolerance then Regressed
                   else if delta >= tolerance then Improved
                   else Steady
                 in
                 (base, delta, status)
               end
             in
             {
               v_bench = bench;
               v_engine = engine;
               v_digest = digest;
               v_latest = latest;
               v_baseline = baseline;
               v_window = n;
               v_delta = delta;
               v_status = status;
             })

  let status_severity = function
    | Collapsed -> 4
    | Regressed -> 3
    | Steady -> 2
    | Improved -> 1
    | Fresh -> 0

  let worst_status vs =
    List.fold_left
      (fun acc v ->
        if status_severity v.v_status > status_severity acc then v.v_status
        else acc)
      Fresh vs

  let opt_float f = if Float.is_nan f then Json.Null else Json.Float f

  let verdict_json v =
    Json.Obj
      [
        ("bench", Json.String v.v_bench);
        ("engine", Json.String v.v_engine);
        ("digest", Json.String v.v_digest);
        ("value", Json.Float v.v_latest.en_value);
        ("unit", Json.String v.v_latest.en_unit);
        ("baseline", opt_float v.v_baseline);
        ("window", Json.Int v.v_window);
        ("delta", opt_float v.v_delta);
        ("status", Json.String (status_label v.v_status));
      ]

  let verdicts_json vs =
    Json.Obj
      [
        ("worst", Json.String (status_label (worst_status vs)));
        ("verdicts", Json.List (List.map verdict_json vs));
      ]

  (* --- rendering: sparklines, terminal trends, static HTML --- *)

  let spark_blocks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

  let sparkline ?(width = 16) values =
    let n = List.length values in
    let values =
      if n <= width then values else List.filteri (fun i _ -> i >= n - width) values
    in
    match values with
    | [] -> ""
    | vs ->
      let lo = List.fold_left Float.min infinity vs in
      let hi = List.fold_left Float.max neg_infinity vs in
      let span = hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             let idx =
               if span <= 0. then 3
               else int_of_float (Float.round ((v -. lo) /. span *. 7.))
             in
             spark_blocks.(max 0 (min 7 idx)))
           vs)

  let iso8601 ts =
    if ts <= 0. then "-"
    else begin
      let tm = Unix.gmtime ts in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    end

  let pp_trends ?(window = 5) ?(tolerance = 0.2) ?(hard_tolerance = 0.5) ppf
      entries =
    let series = series_of entries in
    let vs = verdicts ~window ~tolerance ~hard_tolerance entries in
    Format.fprintf ppf "@[<v>%-28s %-26s %4s %12s %12s %8s  %-16s %s@,"
      "bench" "engine" "n" "latest" "baseline" "delta" "trend" "status";
    List.iter2
      (fun ((_, _, _), history) v ->
        let values = List.map (fun e -> e.en_value) history in
        let delta_s =
          if Float.is_nan v.v_delta then "-"
          else Printf.sprintf "%+.1f%%" (v.v_delta *. 100.)
        in
        let base_s =
          if Float.is_nan v.v_baseline then "-"
          else Printf.sprintf "%.4g" v.v_baseline
        in
        Format.fprintf ppf "%-28s %-26s %4d %12.4g %12s %8s  %-16s %s@,"
          v.v_bench v.v_engine (List.length history) v.v_latest.en_value base_s
          delta_s (sparkline values)
          (status_label v.v_status))
      series vs;
    Format.fprintf ppf "@]"

  let html_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* One self-contained page: no scripts, no external assets, inline
     CSS only — it must open from a CI artifact zip with file://. *)
  let html_page ?(events = []) ?(window = 5) ?(tolerance = 0.2)
      ?(hard_tolerance = 0.5) entries =
    let title = "ocapi perf report" in
    let b = Buffer.create 8192 in
    let add = Buffer.add_string b in
    let series = series_of entries in
    let vs = verdicts ~window ~tolerance ~hard_tolerance entries in
    add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>";
    add (html_escape title);
    add "</title><style>\n";
    add
      "body{font-family:system-ui,sans-serif;margin:2em;color:#222}\n\
       table{border-collapse:collapse;margin:1em 0}\n\
       th,td{border:1px solid #ccc;padding:0.3em 0.7em;text-align:left;\
       font-variant-numeric:tabular-nums}\n\
       th{background:#f0f0f0}\n\
       .spark{font-family:monospace;font-size:1.1em;color:#36c}\n\
       .fresh{color:#888}.steady{color:#222}.improved{color:#071}\n\
       .regressed{color:#b60;font-weight:bold}\n\
       .collapsed{color:#c00;font-weight:bold}\n\
       .meta{color:#666;font-size:0.9em}\n";
    add "</style></head><body>\n<h1>";
    add (html_escape title);
    add "</h1>\n";
    add
      (Printf.sprintf "<p class=\"meta\">%d ledger entries, %d series</p>\n"
         (List.length entries) (List.length series));
    add
      "<table>\n<tr><th>bench</th><th>engine</th><th>n</th><th>latest</th>\
       <th>baseline</th><th>delta</th><th>trend</th><th>status</th></tr>\n";
    List.iter2
      (fun ((_, _, _), history) v ->
        let values = List.map (fun e -> e.en_value) history in
        add "<tr><td>";
        add (html_escape v.v_bench);
        add "</td><td>";
        add (html_escape v.v_engine);
        add
          (Printf.sprintf "</td><td>%d</td><td>%.4g %s</td>"
             (List.length history) v.v_latest.en_value
             (html_escape v.v_latest.en_unit));
        add
          (if Float.is_nan v.v_baseline then "<td>-</td>"
           else Printf.sprintf "<td>%.4g</td>" v.v_baseline);
        add
          (if Float.is_nan v.v_delta then "<td>-</td>"
           else Printf.sprintf "<td>%+.1f%%</td>" (v.v_delta *. 100.));
        add "<td class=\"spark\">";
        add (sparkline ~width:24 values);
        add "</td><td class=\"";
        add (status_label v.v_status);
        add "\">";
        add (status_label v.v_status);
        add "</td></tr>\n")
      series vs;
    add "</table>\n";
    List.iter2
      (fun ((_, _, digest), history) v ->
        add "<h2>";
        add (html_escape (v.v_bench ^ " / " ^ v.v_engine));
        add "</h2>\n<p class=\"meta\">digest ";
        add (html_escape (if digest = "" then "-" else digest));
        add "</p>\n<table>\n<tr><th>when (UTC)</th><th>commit</th>\
             <th>host</th><th>domains</th><th>value</th></tr>\n";
        let rows =
          let n = List.length history in
          if n <= 10 then history
          else List.filteri (fun i _ -> i >= n - 10) history
        in
        List.iter
          (fun e ->
            add
              (Printf.sprintf
                 "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td>\
                  <td>%.6g %s</td></tr>\n"
                 (html_escape (iso8601 e.en_ts))
                 (html_escape e.en_commit) (html_escape e.en_host) e.en_domains
                 e.en_value (html_escape e.en_unit)))
          rows;
        add "</table>\n")
      series vs;
    (match events with
    | [] -> ()
    | evs ->
      add "<h2>Latest event log</h2>\n";
      let kind_of j =
        match Json.member "event" j with
        | Some (Json.String k) -> k
        | _ -> "?"
      in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun j ->
          let k = kind_of j in
          Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        evs;
      add "<p class=\"meta\">";
      add
        (html_escape
           (String.concat ", "
              (Hashtbl.fold (fun k n acc -> Printf.sprintf "%s: %d" k n :: acc) counts []
              |> List.sort String.compare)));
      add "</p>\n<table>\n<tr><th>seq</th><th>event</th><th>corr</th>\
           <th>detail</th></tr>\n";
      let shown =
        let n = List.length evs in
        if n <= 200 then evs else List.filteri (fun i _ -> i < 200) evs
      in
      List.iter
        (fun j ->
          let seq =
            match Json.member "seq" j with Some (Json.Int s) -> s | _ -> 0
          in
          let corr =
            match Json.member "corr" j with
            | Some (Json.String c) -> c
            | _ -> ""
          in
          let detail =
            match j with
            | Json.Obj fields ->
              Json.to_string
                (Json.Obj
                   (List.filter
                      (fun (k, _) ->
                        k <> "seq" && k <> "event" && k <> "corr" && k <> "ts")
                      fields))
            | _ -> ""
          in
          add
            (Printf.sprintf
               "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n" seq
               (html_escape (kind_of j)) (html_escape corr)
               (html_escape detail)))
        shown);
    add "</body></html>\n";
    Buffer.contents b
end
