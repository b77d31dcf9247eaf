open Testutil
module Vector = Kregret_geom.Vector
module Bb = Kregret_check.Beneath_beyond
module Model = Kregret_lp.Model

(* independent membership oracle: p in conv(points) iff the LP
   { lambda >= 0, sum lambda = 1, sum lambda q = p } is feasible *)
let convex_membership points p =
  let n = Array.length points in
  let d = Vector.dim p in
  let m = Model.create () in
  let lambda =
    Array.init n (fun i -> Model.add_var m ~name:(Printf.sprintf "l%d" i))
  in
  Model.add_eq m (List.init n (fun i -> (1., lambda.(i)))) 1.;
  for j = 0 to d - 1 do
    Model.add_eq m (List.init n (fun i -> (points.(i).(j), lambda.(i)))) p.(j)
  done;
  match Model.minimize m [] with
  | Model.Optimal _ -> true
  | Model.Infeasible -> false
  | Model.Unbounded -> true

let test_simplex_3d () =
  let points =
    [| [| 0.; 0.; 0. |]; [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |]
  in
  let h = Bb.of_points points in
  Bb.check_invariants h;
  Alcotest.(check int) "4 facets" 4 (Bb.num_facets h);
  Alcotest.(check (list int)) "all vertices" [ 0; 1; 2; 3 ] (Bb.vertices h);
  Alcotest.(check bool) "centroid inside" true
    (Bb.contains h [| 0.25; 0.25; 0.25 |]);
  Alcotest.(check bool) "outside point" false (Bb.contains h [| 0.9; 0.9; 0.9 |])

let test_octahedron () =
  let points =
    [|
      [| 1.; 0.; 0. |]; [| -1.; 0.; 0. |];
      [| 0.; 1.; 0. |]; [| 0.; -1.; 0. |];
      [| 0.; 0.; 1. |]; [| 0.; 0.; -1. |];
      [| 0.; 0.; 0. |] (* interior *);
    |]
  in
  let h = Bb.of_points points in
  Bb.check_invariants h;
  Alcotest.(check int) "8 facets" 8 (Bb.num_facets h);
  Alcotest.(check (list int)) "6 vertices, interior excluded" [ 0; 1; 2; 3; 4; 5 ]
    (Bb.vertices h)

let test_square_2d () =
  let points =
    [| [| 0.; 0. |]; [| 1.; 0.1 |]; [| 0.1; 1. |]; [| 0.9; 0.95 |]; [| 0.5; 0.5 |] |]
  in
  let h = Bb.of_points points in
  Bb.check_invariants h;
  Alcotest.(check (list int)) "quad vertices" [ 0; 1; 2; 3 ] (Bb.vertices h);
  Alcotest.(check int) "4 edges" 4 (Bb.num_facets h)

let test_degenerate_rejected () =
  (* all points on a line in 2-D *)
  let points = [| [| 0.; 0. |]; [| 0.5; 0.5 |]; [| 1.; 1. |] |] in
  Alcotest.check_raises "not full-dimensional"
    (Invalid_argument "Beneath_beyond: points are not full-dimensional")
    (fun () -> ignore (Bb.of_points points))

let test_euler_3d () =
  (* simplicial closed surface in 3-D: V - E + F = 2 with E = 3F/2 *)
  let st = test_rng 17 in
  let points = Array.of_list (random_points st ~n:40 ~d:3) in
  let h = Bb.of_points points in
  Bb.check_invariants h;
  let v = List.length (Bb.vertices h) and f = Bb.num_facets h in
  Alcotest.(check int) "Euler characteristic" 2 (v - (f * 3 / 2) + f)

let suite =
  [
    Alcotest.test_case "3-D simplex" `Quick test_simplex_3d;
    Alcotest.test_case "octahedron" `Quick test_octahedron;
    Alcotest.test_case "2-D quad" `Quick test_square_2d;
    Alcotest.test_case "degenerate input" `Quick test_degenerate_rejected;
    Alcotest.test_case "Euler characteristic (3-D)" `Quick test_euler_3d;
    qcheck_case ~count:40 "membership matches LP oracle (3-D)"
      QCheck.(pair (qc_points ~n:20 ~d:3) (qc_point 3))
      (fun (pts, q) ->
        QCheck.assume (List.length pts >= 6);
        let points = Array.of_list pts in
        match Bb.of_points points with
        | h -> Bb.contains ~eps:1e-7 h q = convex_membership points q
        | exception Invalid_argument _ -> true);
    qcheck_case ~count:30 "all inputs contained (4-D)"
      (qc_points ~n:18 ~d:4)
      (fun pts ->
        QCheck.assume (List.length pts >= 8);
        let points = Array.of_list pts in
        match Bb.of_points points with
        | h ->
            Bb.check_invariants h;
            Array.for_all (fun p -> Bb.contains ~eps:1e-7 h p) points
        | exception Invalid_argument _ -> true);
    qcheck_case ~count:30 "support function matches brute force (3-D)"
      QCheck.(pair (qc_points ~n:15 ~d:3) (qc_point 3))
      (fun (pts, w) ->
        QCheck.assume (List.length pts >= 5);
        let points = Array.of_list pts in
        match Bb.of_points points with
        | h ->
            let brute =
              Array.fold_left (fun acc p -> Float.max acc (Vector.dot w p))
                neg_infinity points
            in
            abs_float (Bb.support h w -. brute) < 1e-7
        | exception Invalid_argument _ -> true);
  ]
