(* Checks for the benchmark's own helpers. *)

open Perfbench

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (* p90 needs ten samples beyond it: 100 samples is the least. *)
  expect "p90 of 100" (Stats.percentile 90.0 (xs 100) = Some 90.0);
  expect "p90 of 99 withheld" (Stats.percentile 90.0 (xs 99) = None);
  expect "p90 of 200" (Stats.percentile 90.0 (xs 200) = Some 180.0);
  expect "p50 of 20" (Stats.percentile 50.0 (xs 20) = Some 10.0);
  expect "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median even" (close (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]) 2.5);
  expect "quartile" (close (Stats.quantile 0.25 (xs 5)) 2.0);
  (* geomean of ratios, not ratio of geomeans' sums *)
  expect "geomean" (close (Stats.geomean_ratio [ (2.0, 1.0); (8.0, 1.0) ]) 4.0);
  expect "geomean of ratios" (close (Stats.geomean_ratio [ (10.0, 5.0); (3.0, 6.0) ]) 1.0);
  expect "geomean rejects zero"
    (match Stats.geomean_ratio [ (0.0, 1.0) ] with _ -> false | exception Invalid_argument _ -> true);
  (* self time: parent minus the union of its children *)
  let s id parent layer t0 t1 = { Spans.id; parent; layer; t0; t1 } in
  let spans =
    [ s 0 (-1) "bench" 0.0 10.0; s 1 0 "runner" 1.0 4.0; s 2 0 "http" 3.0 6.0; s 3 1 "runner" 2.0 3.0 ]
  in
  let self = Spans.self_times spans in
  expect "self bench" (close (List.assoc "bench" self) 5.0);
  expect "self runner" (close (List.assoc "runner" self) 3.0);
  expect "self http" (close (List.assoc "http" self) 3.0);
  let r = Spans.create () in
  r.Spans.enabled <- true;
  Spans.with_span r "a" (fun () -> Spans.with_span r "b" ignore);
  expect "nesting" (match r.Spans.spans with
     | [ outer; inner ] -> outer.Spans.parent = -1 && inner.Spans.parent = outer.Spans.id
     | _ -> false);
  let off = Spans.create () in
  Spans.with_span off "a" ignore;
  expect "disabled records nothing" (off.Spans.spans = []);
  (* spot-check draw: distinct, in range, ascending, seed-determined *)
  let d = Spotcheck.draw ~seed:7 ~n:2000 ~k:3 in
  expect "draw size" (List.length d = 3);
  expect "draw sorted distinct" (List.sort_uniq compare d = d);
  expect "draw range" (List.for_all (fun i -> i >= 0 && i < 2000) d);
  expect "draw deterministic" (Spotcheck.draw ~seed:7 ~n:2000 ~k:3 = d);
  expect "draw seeded"
    (List.exists (fun s -> Spotcheck.draw ~seed:s ~n:2000 ~k:3 <> d) [ 8; 9; 10 ]);
  expect "draw all" (Spotcheck.draw ~seed:1 ~n:3 ~k:5 = [ 0; 1; 2 ]);
  expect "draw empty" (Spotcheck.draw ~seed:1 ~n:0 ~k:3 = []);
  let covered = Array.make 10 false in
  for seed = 0 to 200 do
    List.iter (fun i -> covered.(i) <- true) (Spotcheck.draw ~seed ~n:10 ~k:2)
  done;
  expect "draw reaches every index" (Array.for_all Fun.id covered);
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: ok"
