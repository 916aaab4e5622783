(* Order statistics shared by the workloads and the comparison tool. *)

let sorted l = Array.of_list (List.sort Float.compare l)

let median = Ocapi_obs.Ledger.median

let minimum = List.fold_left Float.min Float.infinity

let geomean l =
  match List.filter (fun x -> x > 0.0) l with
  | [] -> Float.nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

(* The three quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] computes them (its default
   "exclusive" method), so the spreads printed by [--compare] are the
   spreads a Python reader of the same values gets. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    Some
      (List.map
         (fun i ->
           let j = max 1 (min (ld - 1) (i * m / 4)) in
           let delta = (i * m) - (j * 4) in
           ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
           /. 4.0)
         [ 1; 2; 3 ])

(* Inter-quartile distance as a share of the median. *)
let spread l =
  match quartiles l with
  | Some [ q1; _; q3 ] -> (q3 -. q1) /. median l
  | _ -> Float.nan
