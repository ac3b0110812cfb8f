(* In-memory spans recorded by the benchmark around its calls into the
   program.  Nothing is written until the run ends; a disabled recorder
   costs one branch per call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  layer : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
}

let create () = { enabled = false; next = 0; stack = []; spans = [] }

let with_span r layer f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; layer; t0; t1 } :: r.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time per layer: each span's duration minus the part of it its
   child spans cover, summed by layer.  Layers in first-seen order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let order = ref [] and totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let self = s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids in
      (match Hashtbl.find_opt totals s.layer with
      | None ->
        order := s.layer :: !order;
        Hashtbl.replace totals s.layer self
      | Some v -> Hashtbl.replace totals s.layer (v +. self)))
    (List.sort (fun a b -> compare a.id b.id) spans);
  List.rev_map (fun l -> (l, Hashtbl.find totals l)) !order
