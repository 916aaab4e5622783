type severity = Warning | Error | Fatal

type code =
  | Deadlock
  | Did_not_settle
  | Delta_overflow
  | Overflow
  | Invalid_state
  | Watchdog
  | Timeout
  | Cancelled
  | Worker_crashed
  | Retries_exhausted
  | Overloaded
  | Unsupported
  | Native_unavailable
  | Shared_state
  | Mismatch
  | Internal

type t = {
  e_code : code;
  e_severity : severity;
  e_engine : string;
  e_construct : string option;
  e_cycle : int option;
  e_nets : string list;
  e_message : string;
}

let make ?(severity = Error) ?construct ?cycle ?(nets = []) code ~engine
    message =
  {
    e_code = code;
    e_severity = severity;
    e_engine = engine;
    e_construct = construct;
    e_cycle = cycle;
    e_nets = nets;
    e_message = message;
  }

exception Error of t

let fail ?severity ?construct ?cycle ?nets code ~engine fmt =
  Format.kasprintf
    (fun s -> raise (Error (make ?severity ?construct ?cycle ?nets code ~engine s)))
    fmt

let check_state ~engine ~construct ~cycle ~states s =
  if s < 0 || s >= states then
    fail Invalid_state ~engine ~construct ~cycle
      "state index %d outside the %d encoded states" s states
  else s

let check_count ~engine what n =
  if n < 0 then
    fail Unsupported ~engine "%s must be a non-negative integer, got %d" what n

let code_label = function
  | Deadlock -> "deadlock"
  | Did_not_settle -> "did-not-settle"
  | Delta_overflow -> "delta-overflow"
  | Overflow -> "overflow"
  | Invalid_state -> "invalid-state"
  | Watchdog -> "watchdog"
  | Timeout -> "timeout"
  | Cancelled -> "cancelled"
  | Worker_crashed -> "worker-crashed"
  | Retries_exhausted -> "retries-exhausted"
  | Overloaded -> "overloaded"
  | Unsupported -> "unsupported"
  | Native_unavailable -> "native-unavailable"
  | Shared_state -> "shared-state"
  | Mismatch -> "mismatch"
  | Internal -> "internal"

let severity_label = function
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

let pp ppf d =
  Format.fprintf ppf "%s%s: %s" d.e_engine
    (match d.e_construct with Some c -> "/" ^ c | None -> "")
    (code_label d.e_code);
  (match d.e_cycle with
  | Some c -> Format.fprintf ppf " (cycle %d)" c
  | None -> ());
  Format.fprintf ppf ": %s" d.e_message;
  if d.e_nets <> [] then
    Format.fprintf ppf " [nets: %s]" (String.concat ", " d.e_nets)

let to_string d = Format.asprintf "%a" pp d

(* Print [Error d] readably when it escapes to the toplevel. *)
let () =
  Printexc.register_printer (function
    | Error d -> Some ("Ocapi_error.Error: " ^ to_string d)
    | _ -> None)
