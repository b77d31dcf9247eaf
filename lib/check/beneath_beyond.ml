module Vector = Kregret_geom.Vector
module Matrix = Kregret_geom.Matrix

type facet = { normal : Vector.t; offset : float; vertices : int array }

type t = {
  points : Vector.t array;
  mutable facet_list : facet list;
  interior : Vector.t; (* a point strictly inside, used to orient normals *)
  eps : float;
}

let facets t = t.facet_list
let num_facets t = List.length t.facet_list

let eval f p = Vector.dot f.normal p -. f.offset

(* Build a facet through the given vertex indices, oriented away from the
   interior point. Returns [None] when the vertices are affinely dependent
   (degenerate ridge): such candidate facets are skipped. *)
let make_facet points interior idxs =
  let pts = List.map (fun i -> points.(i)) idxs in
  match Hyperplane.through_points pts with
  | None -> None
  | Some h ->
      let v = Hyperplane.eval h interior in
      if abs_float v < 1e-13 then None
      else
        let normal, offset =
          if v > 0. then (Vector.scale (-1.) h.Hyperplane.normal, -.h.Hyperplane.offset)
          else (h.Hyperplane.normal, h.Hyperplane.offset)
        in
        let vertices = Array.of_list (List.sort compare idxs) in
        Some { normal; offset; vertices }

(* greedily pick d+1 affinely independent points *)
let initial_simplex points d =
  let n = Array.length points in
  let chosen = ref [ 0 ] in
  let i = ref 1 in
  while List.length !chosen < d + 1 && !i < n do
    let candidate = !i in
    let base = points.(List.hd (List.rev !chosen)) in
    ignore base;
    let p0 = points.(List.nth !chosen 0) in
    let diffs =
      List.filteri (fun j _ -> j > 0) !chosen @ [ candidate ]
      |> List.map (fun j -> Vector.sub points.(j) p0)
    in
    let rank = Matrix.rank ~eps:1e-9 (Matrix.of_rows diffs) in
    if rank = List.length diffs then chosen := !chosen @ [ candidate ];
    incr i
  done;
  if List.length !chosen < d + 1 then
    invalid_arg "Beneath_beyond: points are not full-dimensional";
  !chosen

(* all (d-1)-subsets of a facet's vertex array = its ridges *)
let ridges_of vertices =
  let n = Array.length vertices in
  List.init n (fun drop ->
      Array.to_list vertices |> List.filteri (fun j _ -> j <> drop))

let insert t p_idx =
  let p = t.points.(p_idx) in
  let visible, hidden =
    List.partition (fun f -> eval f p > t.eps) t.facet_list
  in
  if visible = [] then ()
  else begin
    (* horizon ridges: ridges of visible facets not shared with another
       visible facet *)
    let counter = Hashtbl.create 64 in
    List.iter
      (fun f ->
        List.iter
          (fun ridge ->
            let key = ridge in
            Hashtbl.replace counter key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counter key)))
          (ridges_of f.vertices))
      visible;
    let new_facets = ref [] in
    Hashtbl.iter
      (fun ridge count ->
        if count = 1 then
          match make_facet t.points t.interior (p_idx :: ridge) with
          | Some f -> new_facets := f :: !new_facets
          | None -> ())
      counter;
    t.facet_list <- hidden @ !new_facets
  end

let of_points ?(eps = 1e-9) points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Beneath_beyond.of_points: empty";
  let d = Vector.dim points.(0) in
  let simplex = initial_simplex points d in
  let interior =
    let c = Vector.zero d in
    List.iter (fun i -> Vector.add_in_place c points.(i)) simplex;
    Vector.scale (1. /. float_of_int (d + 1)) c
  in
  let t = { points; facet_list = []; interior; eps } in
  (* the d+1 facets of the initial simplex *)
  let simplex_arr = Array.of_list simplex in
  t.facet_list <-
    List.filter_map
      (fun drop ->
        let idxs =
          Array.to_list simplex_arr |> List.filteri (fun j _ -> j <> drop)
        in
        make_facet points interior idxs)
      (List.init (d + 1) Fun.id);
  let in_simplex = Array.make n false in
  List.iter (fun i -> in_simplex.(i) <- true) simplex;
  for i = 0 to n - 1 do
    if not in_simplex.(i) then insert t i
  done;
  t

let contains ?eps t p =
  let eps = Option.value ~default:t.eps eps in
  List.for_all (fun f -> eval f p <= eps) t.facet_list

let vertices t =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun f -> Array.iter (fun i -> Hashtbl.replace seen i ()) f.vertices)
    t.facet_list;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) seen [])

let support t w =
  List.fold_left
    (fun acc i -> Float.max acc (Vector.dot w t.points.(i)))
    neg_infinity (vertices t)

let check_invariants t =
  List.iter
    (fun f ->
      Array.iter
        (fun i ->
          if abs_float (eval f t.points.(i)) > 1e-6 then
            failwith "Beneath_beyond: facet vertex off its hyperplane")
        f.vertices;
      Array.iter
        (fun p ->
          if eval f p > 1e-6 then
            failwith "Beneath_beyond: input point above a facet")
        t.points)
    t.facet_list;
  (* closed surface: every ridge shared by exactly two facets *)
  let counter = Hashtbl.create 256 in
  List.iter
    (fun f ->
      List.iter
        (fun ridge ->
          Hashtbl.replace counter ridge
            (1 + Option.value ~default:0 (Hashtbl.find_opt counter ridge)))
        (ridges_of f.vertices))
    t.facet_list;
  Hashtbl.iter
    (fun _ count ->
      if count <> 2 then
        failwith
          (Printf.sprintf "Beneath_beyond: ridge shared by %d facets" count))
    counter
