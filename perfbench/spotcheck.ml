(* Seeded choice of the global sample indices whose sharded output is
   re-derived in process: [k] distinct indices of [0, n), ascending, a
   pure function of [seed]. *)
let draw ~seed ~n ~k =
  if n <= 0 || k <= 0 then []
  else if k >= n then List.init n Fun.id
  else begin
    let st = Random.State.make [| seed; n; k |] in
    (* Floyd's algorithm: k distinct values with k draws. *)
    let chosen = Hashtbl.create k in
    for j = n - k to n - 1 do
      let t = Random.State.int st (j + 1) in
      Hashtbl.replace chosen (if Hashtbl.mem chosen t then j else t) ()
    done;
    List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) chosen [])
  end
