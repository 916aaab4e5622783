(* Monotonic time in seconds, at nanosecond resolution: every interval
   the benchmark reports is taken from this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
