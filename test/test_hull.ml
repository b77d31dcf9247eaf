open Testutil
module Vector = Kregret_geom.Vector
module Dd = Kregret_hull.Dd
module Dual_polytope = Kregret_hull.Dual_polytope
module Chain2d = Kregret_check.Chain2d
module Extreme = Kregret_hull.Extreme
module Regret_lp = Kregret_lp.Regret_lp

(* --- Dd ------------------------------------------------------------- *)

let test_box_vertices () =
  let t = Dd.create ~bound:1. ~dim:3 () in
  Alcotest.(check int) "2^3 corners" 8 (Dd.num_vertices t);
  Dd.check_invariants t

let test_single_cut () =
  (* cut the unit square with x + y <= 1.5: corner (1,1) dies, vertices
     (1, 0.5) and (0.5, 1) appear, total 4 *)
  let t = Dd.create ~bound:1. ~dim:2 () in
  let ev = Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset:1.5 in
  Alcotest.(check int) "one removed" 1 (List.length ev.Dd.removed);
  Alcotest.(check int) "two created" 2 (List.length ev.Dd.created);
  Alcotest.(check int) "pentagon" 5 (Dd.num_vertices t);
  Alcotest.(check bool) "not redundant" false ev.Dd.redundant;
  Dd.check_invariants t

let test_redundant_constraint () =
  let t = Dd.create ~bound:1. ~dim:2 () in
  let ev = Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset:5. in
  Alcotest.(check bool) "redundant" true ev.Dd.redundant;
  Alcotest.(check int) "unchanged" 4 (Dd.num_vertices t)

let test_duplicate_constraint () =
  let t = Dd.create ~bound:1. ~dim:2 () in
  ignore (Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset:1.);
  let ev = Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset:1. in
  Alcotest.(check bool) "second copy is redundant" true ev.Dd.redundant;
  Dd.check_invariants t

let test_simplex_polytope () =
  (* intersecting the unit box with x+y+z <= 0.5 leaves the simplex corner
     structure: vertices (0,0,0), (0.5,0,0), (0,0.5,0), (0,0,0.5) *)
  let t = Dd.create ~bound:1. ~dim:3 () in
  ignore (Dd.add_constraint t ~normal:[| 2.; 2.; 2. |] ~offset:1.);
  Alcotest.(check int) "4 vertices" 4 (Dd.num_vertices t);
  Dd.check_invariants t;
  let _, m = Dd.max_dot t [| 1.; 1.; 1. |] in
  check_float "support in diagonal direction" 0.5 m

let test_degenerate_vertex () =
  (* three constraints through the same vertex of the square (degeneracy):
     x <= 1 handled by box; add x + y <= 1 and x + 2y <= 1 and 2x + y <= 1:
     all pass through no common... use constraints all tight at (0.5, 0.5):
     x + y <= 1, 0.5x + 1.5y <= 1, 1.5x + 0.5y <= 1. *)
  let t = Dd.create ~bound:1. ~dim:2 () in
  ignore (Dd.add_constraint t ~normal:[| 1.; 1. |] ~offset:1.);
  ignore (Dd.add_constraint t ~normal:[| 0.5; 1.5 |] ~offset:1.);
  ignore (Dd.add_constraint t ~normal:[| 1.5; 0.5 |] ~offset:1.);
  Dd.check_invariants t;
  (* (0.5,0.5) must be a vertex with >= 3 tight constraints *)
  let v =
    List.find_opt
      (fun v -> Vector.equal ~eps:1e-7 v.Dd.w [| 0.5; 0.5 |])
      (Dd.vertices t)
  in
  match v with
  | None -> Alcotest.fail "expected vertex (0.5, 0.5)"
  | Some v ->
      Alcotest.(check bool) "degenerate tightness" true
        (Array.length v.Dd.tight >= 3)

let test_invariants_random_3d () =
  let st = test_rng 42 in
  let t = Dd.create ~bound:2. ~dim:3 () in
  List.iter
    (fun p -> ignore (Dd.add_constraint t ~normal:p ~offset:1.))
    (random_points st ~n:25 ~d:3);
  Dd.check_invariants t

let test_max_dot_decreases () =
  (* adding constraints can only shrink the support function *)
  let st = test_rng 7 in
  let t = Dd.create ~bound:2. ~dim:4 () in
  let q = random_point st 4 in
  let prev = ref infinity in
  List.iter
    (fun p ->
      ignore (Dd.add_constraint t ~normal:p ~offset:1.);
      let _, m = Dd.max_dot t q in
      Alcotest.(check bool) "monotone" true (m <= !prev +. 1e-9);
      prev := m)
    (random_points st ~n:15 ~d:4)

(* --- Dual_polytope vs LP oracle -------------------------------------- *)

(* Make a dataset normalized per dimension (some point hits 1 on each dim) by
   planting the basis-scaled boundary points. *)
let with_boundary st ~n ~d =
  let boundary =
    List.init d (fun i ->
        Array.init d (fun j -> if i = j then 1.0 else 0.2 +. Random.State.float st 0.5))
  in
  boundary @ random_points st ~n ~d

let test_cr_matches_lp_many () =
  let st = test_rng 123 in
  for _trial = 1 to 10 do
    let d = 2 + Random.State.int st 4 in
    let selected = with_boundary st ~n:6 ~d in
    let q = random_point st d in
    let dp = Dual_polytope.create ~dim:d () in
    List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
    let geometric = Dual_polytope.critical_ratio dp q in
    let lp, _ = Regret_lp.critical_ratio ~selected q in
    check_float ~eps:1e-6
      (Printf.sprintf "cr agreement (d=%d)" d)
      lp geometric
  done

let test_mrr_matches_lp () =
  let st = test_rng 321 in
  for _trial = 1 to 5 do
    let d = 3 in
    let selected = with_boundary st ~n:5 ~d in
    let data = selected @ random_points st ~n:20 ~d in
    let dp = Dual_polytope.create ~dim:d () in
    List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
    let geometric = Dual_polytope.max_regret_ratio dp ~data in
    let lp = Regret_lp.max_regret_ratio ~data ~selected () in
    check_float ~eps:1e-6 "mrr agreement" lp geometric
  done

let test_champion_survives_rule () =
  (* if a champion vertex survives an insertion it must stay the champion *)
  let st = test_rng 99 in
  let d = 3 in
  let dp = Dual_polytope.create ~dim:d () in
  List.iter
    (fun p -> ignore (Dual_polytope.insert dp p))
    (with_boundary st ~n:4 ~d);
  let q = random_point st d in
  let v, m = Dual_polytope.champion dp q in
  let ev = Dual_polytope.insert dp (random_point st d) in
  if not (List.mem v.Dd.id ev.Dd.removed) then begin
    let v', m' = Dual_polytope.champion dp q in
    check_float "same champion value" m m';
    Alcotest.(check bool) "same or equal champion" true
      (v'.Dd.id = v.Dd.id || abs_float (m -. m') < 1e-9)
  end

(* --- Chain2d ---------------------------------------------------------- *)

let test_chain_simple () =
  let pts = [ [| 1.; 0.2 |]; [| 0.2; 1. |]; [| 0.3; 0.3 |]; [| 0.9; 0.85 |] ] in
  let { Chain2d.chain } = Chain2d.upper_chain pts in
  (* extreme: (1,0.2), (0.9,0.85), (0.2,1); interior: (0.3,0.3) *)
  Alcotest.(check int) "three extreme" 3 (Array.length chain);
  Alcotest.check vector "max-x first" [| 1.; 0.2 |] chain.(0);
  Alcotest.check vector "max-y last" [| 0.2; 1. |] chain.(2)

let test_chain_collinear () =
  let pts = [ [| 1.; 0.2 |]; [| 0.6; 0.6 |]; [| 0.2; 1. |] ] in
  (* (0.6, 0.6) is on the segment: not extreme *)
  let { Chain2d.chain } = Chain2d.upper_chain pts in
  Alcotest.(check int) "collinear dropped" 2 (Array.length chain)

let test_chain_single () =
  let { Chain2d.chain } = Chain2d.upper_chain [ [| 0.4; 0.7 |] ] in
  Alcotest.(check int) "singleton" 1 (Array.length chain);
  let h = Chain2d.upper_chain [ [| 0.4; 0.7 |] ] in
  check_float "cr of the point itself" 1. (Chain2d.critical_ratio h [| 0.4; 0.7 |]);
  check_float "cr along x" (0.4 /. 0.8) (Chain2d.critical_ratio h [| 0.8; 0.1 |])

let test_chain_cr_known () =
  let pts = [ [| 1.; 0.2 |]; [| 0.2; 1. |] ] in
  let h = Chain2d.upper_chain pts in
  check_float "diagonal" 0.6 (Chain2d.critical_ratio h [| 1.; 1. |]);
  check_float "selected point" 1. (Chain2d.critical_ratio h [| 1.; 0.2 |])

let test_extreme_lp_triangle () =
  let a = [| 1.; 0.1 |] and b = [| 0.1; 1. |] and c = [| 0.9; 0.9 |] in
  let mid = [| 0.5; 0.5 |] in
  let ext = Extreme.extreme_points [ a; b; c; mid ] in
  Alcotest.(check int) "three extreme" 3 (List.length ext);
  Alcotest.(check bool) "mid excluded" true (not (List.memq mid ext))

let suite =
  [
    Alcotest.test_case "dd: box init" `Quick test_box_vertices;
    Alcotest.test_case "dd: single cut" `Quick test_single_cut;
    Alcotest.test_case "dd: redundant constraint" `Quick test_redundant_constraint;
    Alcotest.test_case "dd: duplicate constraint" `Quick test_duplicate_constraint;
    Alcotest.test_case "dd: simplex" `Quick test_simplex_polytope;
    Alcotest.test_case "dd: degenerate vertex" `Quick test_degenerate_vertex;
    Alcotest.test_case "dd: invariants under random cuts" `Quick test_invariants_random_3d;
    Alcotest.test_case "dd: support function monotone" `Quick test_max_dot_decreases;
    Alcotest.test_case "dual: cr matches LP (random)" `Quick test_cr_matches_lp_many;
    Alcotest.test_case "dual: mrr matches LP (random)" `Quick test_mrr_matches_lp;
    Alcotest.test_case "dual: champion survival" `Quick test_champion_survives_rule;
    Alcotest.test_case "chain2d: simple hull" `Quick test_chain_simple;
    Alcotest.test_case "chain2d: collinear" `Quick test_chain_collinear;
    Alcotest.test_case "chain2d: single point" `Quick test_chain_single;
    Alcotest.test_case "chain2d: known cr" `Quick test_chain_cr_known;
    Alcotest.test_case "extreme: triangle" `Quick test_extreme_lp_triangle;
    qcheck_case ~count:60 "2-D: dual cr = chain cr = LP cr"
      QCheck.(pair (qc_points ~n:8 ~d:2) (qc_point 2))
      (fun (points, q) ->
        (* plant boundary points so Q is bounded by real constraints *)
        let selected = [| 1.; 0.3 |] :: [| 0.3; 1. |] :: points in
        let dp = Dual_polytope.create ~dim:2 () in
        List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
        let a = Dual_polytope.critical_ratio dp q in
        let b = Chain2d.critical_ratio (Chain2d.upper_chain selected) q in
        let c, _ = Regret_lp.critical_ratio ~selected q in
        abs_float (a -. b) < 1e-6 && abs_float (b -. c) < 1e-6);
    qcheck_case ~count:30 "3-D: dual mrr = LP mrr"
      (qc_points ~n:10 ~d:3)
      (fun points ->
        let selected =
          [| 1.; 0.3; 0.3 |] :: [| 0.3; 1.; 0.3 |] :: [| 0.3; 0.3; 1. |]
          :: points
        in
        let dp = Dual_polytope.create ~dim:3 () in
        List.iter (fun p -> ignore (Dual_polytope.insert dp p)) selected;
        let a = Dual_polytope.max_regret_ratio dp ~data:selected in
        (* every selected point is covered: mrr over the selection itself = 0 *)
        abs_float a < 1e-6);
  ]
