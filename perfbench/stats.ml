(* Order statistics for the benchmark's reported figures. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (the "inclusive" method,
   Python's [statistics.quantiles(..., method="inclusive")]). *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Nearest-rank percentile, reported only when at least ten samples
   lie above it: a p90 over fewer than 100 samples would rest on fewer
   than ten observations and is withheld ([None]). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    if n - rank < 10 then None else Some a.(rank - 1)

(* Geometric mean of [num /. den] over the pairs. *)
let geomean_ratio pairs =
  match pairs with
  | [] -> invalid_arg "Stats.geomean_ratio: no pairs"
  | _ ->
    let logs =
      List.map
        (fun (num, den) ->
          if num <= 0.0 || den <= 0.0 then
            invalid_arg "Stats.geomean_ratio: non-positive value";
          log (num /. den))
        pairs
    in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
