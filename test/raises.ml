(* The library raises one exception, [Ocapi_error.Error]; tests tell its
   failures apart by the diagnostic's code. *)

(** [code c e] holds when [e] is [Ocapi_error.Error] with code [c]: the
    guard of a test's [| exception e when Raises.code c e ->] arm. *)
let code c = function
  | Ocapi_error.Error d -> d.Ocapi_error.e_code = c
  | _ -> false
