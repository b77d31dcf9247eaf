module Vector = Kregret_geom.Vector

let corner_count d =
  if d < 0 || d > 20 then invalid_arg "Orthotope.corner_count: d out of range";
  1 lsl d

let corners p =
  let d = Vector.dim p in
  let n = corner_count d in
  Array.init n (fun mask ->
      Array.init d (fun i -> if mask land (1 lsl i) <> 0 then p.(i) else 0.))

let of_set ps =
  let tbl = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun p ->
      Array.iter
        (fun c ->
          let key = Array.to_list c in
          if not (Hashtbl.mem tbl key) then begin
            Hashtbl.add tbl key ();
            out := c :: !out
          end)
        (corners p))
    ps;
  List.rev !out

(* 2-D downward-closure membership: x >= 0 and, for every non-negative
   direction w that can be a support normal (the two axes and every normal of
   a segment between two input points), w.x <= max_p w.p. *)
let member2d ~eps points x =
  if Vector.dim x <> 2 then invalid_arg "Orthotope.member2d: 2-D only";
  let support w = List.fold_left (fun acc p -> Float.max acc (Vector.dot w p)) 0. points in
  let ok w = Vector.dot w x <= support w +. eps in
  Vector.is_nonneg ~eps x
  && ok [| 1.; 0. |]
  && ok [| 0.; 1. |]
  && List.for_all
       (fun p ->
         List.for_all
           (fun q ->
             (* normal of segment p-q, oriented to be non-negative if possible *)
             let w = [| q.(1) -. p.(1); p.(0) -. q.(0) |] in
             let w = if w.(0) +. w.(1) < 0. then Vector.scale (-1.) w else w in
             if w.(0) >= 0. && w.(1) >= 0. && Vector.norm w > eps then ok w
             else true)
           points)
       points
