open Testutil
module Vector = Kregret_geom.Vector
module Hyperplane = Kregret_check.Hyperplane
module Orthotope = Kregret_check.Orthotope

let test_sides () =
  let h = Hyperplane.make [| 1.; 1. |] 1. in
  let eps = 1e-9 in
  Alcotest.(check bool) "below" true (Hyperplane.side ~eps h [| 0.2; 0.2 |] = Hyperplane.Below);
  Alcotest.(check bool) "on" true (Hyperplane.side ~eps h [| 0.5; 0.5 |] = Hyperplane.On);
  Alcotest.(check bool) "above" true (Hyperplane.side ~eps h [| 0.9; 0.9 |] = Hyperplane.Above)

let test_through () =
  let h = Hyperplane.through ~normal:[| 2.; 0. |] [| 0.5; 0.3 |] in
  check_float "offset" 1. h.Hyperplane.offset

let test_ray_intersection () =
  let h = Hyperplane.make [| 1.; 1. |] 1. in
  (match Hyperplane.ray_intersection h [| 1.; 1. |] with
  | Some t -> check_float "t" 0.5 t
  | None -> Alcotest.fail "ray hits plane");
  (match Hyperplane.ray_intersection h [| -1.; -1. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "ray points away");
  match Hyperplane.ray_intersection h [| 1.; -1. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "ray parallel"

let test_through_points_2d () =
  match Hyperplane.through_points [ [| 1.; 0. |]; [| 0.; 1. |] ] with
  | None -> Alcotest.fail "independent points"
  | Some h ->
      let h = Hyperplane.normalized h in
      check_float "normal x" (1. /. sqrt 2.) h.Hyperplane.normal.(0);
      check_float "normal y" (1. /. sqrt 2.) h.Hyperplane.normal.(1);
      check_float "offset" (1. /. sqrt 2.) h.Hyperplane.offset

let test_through_points_degenerate () =
  Alcotest.(check bool) "collinear -> None" true
    (Hyperplane.through_points
       [ [| 0.; 0.; 0. |]; [| 1.; 1.; 1. |]; [| 2.; 2.; 2. |] ]
    = None)

let test_corners () =
  let p = [| 0.5; 0.25 |] in
  let cs = Orthotope.corners p in
  Alcotest.(check int) "count" 4 (Array.length cs);
  Alcotest.check vector "origin" [| 0.; 0. |] cs.(0);
  Alcotest.check vector "p itself" p cs.(3);
  Alcotest.check vector "x proj" [| 0.5; 0. |] cs.(1);
  Alcotest.check vector "y proj" [| 0.; 0.25 |] cs.(2)

let test_of_set_dedups () =
  (* two points sharing the origin corner: 4 + 4 - 1 = 7 distinct corners *)
  let pts = Orthotope.of_set [ [| 0.5; 0.25 |]; [| 0.7; 0.9 |] ] in
  Alcotest.(check int) "dedup" 7 (List.length pts)

let test_member2d () =
  let pts = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let mem = Orthotope.member2d ~eps:1e-9 pts in
  Alcotest.(check bool) "inside" true (mem [| 0.5; 0.5 |]);
  Alcotest.(check bool) "vertex" true (mem [| 1.; 0.2 |]);
  Alcotest.(check bool) "projection" true (mem [| 0.; 1. |]);
  Alcotest.(check bool) "outside" false (mem [| 0.9; 0.9 |]);
  Alcotest.(check bool) "negative" false (mem [| -0.1; 0.1 |])

let suite =
  [
    Alcotest.test_case "hyperplane sides" `Quick test_sides;
    Alcotest.test_case "through point" `Quick test_through;
    Alcotest.test_case "ray intersection" `Quick test_ray_intersection;
    Alcotest.test_case "through_points 2d" `Quick test_through_points_2d;
    Alcotest.test_case "through_points degenerate" `Quick test_through_points_degenerate;
    Alcotest.test_case "orthotope corners" `Quick test_corners;
    Alcotest.test_case "orthotope dedup" `Quick test_of_set_dedups;
    Alcotest.test_case "member2d" `Quick test_member2d;
    qcheck_case ~count:200 "fitted hyperplane contains its points"
      (qc_points ~n:4 ~d:4)
      (fun pts ->
        QCheck.assume (List.length pts = 4);
        match Hyperplane.through_points pts with
        | None -> true
        | Some h ->
            List.for_all (fun p -> abs_float (Hyperplane.eval h p) < 1e-6) pts);
    qcheck_case ~count:200 "orthotope corners dominated by p" (qc_point 5)
      (fun p ->
        Array.for_all
          (fun c -> Array.for_all2 (fun ci pi -> ci <= pi +. 1e-12) c p)
          (Orthotope.corners p));
  ]
