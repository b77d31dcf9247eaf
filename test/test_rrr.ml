(* Unit tests for the rank-regret engine (lib/rrr) and its serving path —
   the deterministic complement to the fuzzer's `--check rrr` suite
   (lib/check/rrr_oracle.ml):

   - the certified lo bound is monotone non-increasing along greedy
     prefixes (hi is NOT monotone and is deliberately never asserted so);
   - the whole skyline has max rank 1;
   - d = 2 answers are exact and dominate dense direction sampling;
   - degenerate inputs (duplicates, score ties, collinear rows) keep
     every certificate well-formed;
   - answers are bit-identical across pool widths and across max_size
     (greedy prefix stability);
   - the served rank_regret verb is bit-identical to the offline engine
     over a live socket, and the result cache never hands one verb kind's
     row to another verb at equal (fingerprint, approx, epoch, k). *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Rng = Kregret_dataset.Rng
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Mrr = Kregret.Mrr
module Pool = Kregret_parallel.Pool
module Rrr = Kregret_rrr.Rrr
module Serve = Kregret_serve
module Client = Serve.Client
module Server = Serve.Server
module Json = Serve.Json

let tol = Kregret_check.Tolerance.tie

let with_jobs jobs f =
  let before = Pool.get_jobs () in
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs before) f

let points_of ~n ~d ~seed =
  let st = Testutil.test_rng seed in
  Array.init n (fun _ -> Testutil.random_point st d)

(* structural sanity shared by every test: certificates are well-formed *)
let check_well_formed ~n (b : Rrr.rank) =
  Alcotest.(check bool) "1 <= lo" true (1 <= b.Rrr.lo);
  Alcotest.(check bool) "lo <= hi" true (b.Rrr.lo <= b.Rrr.hi);
  Alcotest.(check bool) "hi <= n" true (b.Rrr.hi <= n);
  Alcotest.(check bool) "exact iff lo = hi" (b.Rrr.lo = b.Rrr.hi) b.Rrr.exact

(* ---- lo monotonicity ------------------------------------------------------ *)

let check_lo_monotone ~d ~n ~seed () =
  let points = points_of ~n ~d ~seed in
  let eng = Rrr.build points in
  let bounds = Rrr.bounds eng in
  Alcotest.(check bool) "at least one prefix" true (Array.length bounds >= 1);
  Array.iter (check_well_formed ~n) bounds;
  for i = 1 to Array.length bounds - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "lo non-increasing at prefix %d" (i + 1))
      true
      (bounds.(i).Rrr.lo <= bounds.(i - 1).Rrr.lo)
  done;
  if d <= 2 then
    Array.iteri
      (fun i b ->
        Alcotest.(check bool)
          (Printf.sprintf "d=2 prefix %d exact" (i + 1))
          true b.Rrr.exact)
      bounds

(* ---- whole skyline => rank 1 ---------------------------------------------- *)

(* realized rank of [set] under [w], counting only beats clear of the tie
   tolerance — a lower bound on the exact-arithmetic rank, so it can
   never exceed the engine's certified max rank. *)
let sampled_rank ~points ~set w =
  let best = ref neg_infinity in
  Array.iter
    (fun s ->
      let v = Vector.dot w points.(s) in
      if v > !best then best := v)
    set;
  let c = ref 0 in
  Array.iter (fun q -> if Vector.dot w q > !best +. tol then incr c) points;
  1 + !c

(* Every preference's maximum score is attained on the skyline (a
   maximizer's dominator scores at least as much under w >= 0), so
   nothing strictly outranks the whole skyline anywhere. No such claim
   holds for the happy set — subjugation only bounds scores against the
   virtual corners, so a non-happy skyline point can be the strict top-1
   of some direction by a real margin (observed: 6e-3 on the d=2 seed-5
   instance below) — which is exactly why the engine's candidate pool is
   the skyline, not GeoGreedy's happy funnel. *)
let test_whole_skyline () =
  List.iter
    (fun (d, n, seed) ->
      let points = points_of ~n ~d ~seed in
      let sky = Skyline.naive points in
      let r = Rrr.max_rank ~points sky in
      check_well_formed ~n r;
      Alcotest.(check int)
        (Printf.sprintf "d=%d: whole skyline realizes rank 1" d)
        1 r.Rrr.lo;
      if d <= 2 then
        Alcotest.(check int) "d=2: whole skyline hi = 1" 1 r.Rrr.hi)
    [ (2, 80, 5); (3, 60, 6); (4, 50, 7) ]

(* ...and the non-claim is real: on that instance the happy funnel
   strictly loses rank 1 — pinning the reason the pools differ. *)
let test_happy_not_rank_complete () =
  let points = points_of ~n:80 ~d:2 ~seed:5 in
  let sky = Skyline.naive points in
  let sky_rows = Array.map (fun i -> points.(i)) sky in
  let happy = Array.map (fun i -> sky.(i)) (Happy.happy_points sky_rows) in
  if Array.length happy = Array.length sky then
    Alcotest.fail "fixture lost its dropped-but-rank-relevant point";
  let r = Rrr.max_rank ~points happy in
  Alcotest.(check bool) "happy funnel loses rank 1" true (r.Rrr.lo > 1)

(* ---- d = 2: exact, and sampling never beats the certificate --------------- *)

let test_d2_exact_vs_sampled () =
  let points = points_of ~n:120 ~d:2 ~seed:13 in
  let n = Array.length points in
  let eng = Rrr.build points in
  let order = Rrr.order eng in
  let bounds = Rrr.bounds eng in
  let rng = Rng.create 2014 in
  Array.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d exact" (i + 1))
        true
        (b.Rrr.exact && b.Rrr.lo = b.Rrr.hi);
      check_well_formed ~n b;
      let set = Array.sub order 0 (i + 1) in
      (* the witness itself realizes the certificate (up to ties) *)
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d witness rank <= lo" (i + 1))
        true
        (sampled_rank ~points ~set b.Rrr.witness <= b.Rrr.lo);
      for _ = 1 to 100 do
        let w = Mrr.random_direction rng 2 in
        let r = sampled_rank ~points ~set w in
        if r > b.Rrr.lo then
          Alcotest.failf "prefix %d: sampled rank %d beats exact max %d" (i + 1)
            r b.Rrr.lo
      done)
    bounds

(* ---- degenerate inputs ---------------------------------------------------- *)

let test_degenerate_duplicates () =
  (* duplicates never outrank each other (strict tie rule): a lone point
     copied n times has max rank exactly 1 *)
  List.iter
    (fun d ->
      let p = Array.init d (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
      let points = Array.make 9 p in
      let r = Rrr.max_rank ~points [| 0 |] in
      check_well_formed ~n:9 r;
      Alcotest.(check int)
        (Printf.sprintf "d=%d: duplicated singleton lo = 1" d)
        1 r.Rrr.lo;
      if d <= 2 then
        Alcotest.(check int) "d=2: duplicated singleton hi = 1" 1 r.Rrr.hi;
      let eng = Rrr.build points in
      Alcotest.(check bool) "build on all-duplicates" true (Rrr.size eng >= 1);
      Array.iter (check_well_formed ~n:9) (Rrr.bounds eng))
    [ 2; 3 ]

let test_degenerate_collinear () =
  (* collinear d=2 rows on x + y = 1: every point ties under (1/2, 1/2),
     crossings pile on shared t* values *)
  let points =
    Array.init 11 (fun i ->
        let x = 0.05 +. (0.09 *. float_of_int i) in
        [| x; 1.0 -. x |])
  in
  let n = Array.length points in
  let eng = Rrr.build points in
  let bounds = Rrr.bounds eng in
  Array.iter
    (fun b ->
      check_well_formed ~n b;
      Alcotest.(check bool) "collinear: exact" true b.Rrr.exact)
    bounds;
  (* the final greedy prefix drives the bound to 1 (all candidates are
     the happy set, and the whole happy set has rank 1) *)
  let last = bounds.(Array.length bounds - 1) in
  Alcotest.(check int) "collinear: final prefix rank 1" 1 last.Rrr.lo;
  Alcotest.(check int) "collinear: final prefix hi 1" 1 last.Rrr.hi

let test_degenerate_axis_ties () =
  (* shared coordinates: beat predicates degenerate to Constant on one
     axis; the sweep's equal-t event batching is on the other *)
  let points =
    [|
      [| 0.5; 0.9 |]; [| 0.5; 0.7 |]; [| 0.5; 0.5 |]; [| 0.9; 0.5 |];
      [| 0.7; 0.5 |]; [| 0.3; 0.3 |]; [| 0.5; 0.9 |];
    |]
  in
  let n = Array.length points in
  let eng = Rrr.build points in
  Array.iter
    (fun b ->
      check_well_formed ~n b;
      Alcotest.(check bool) "axis ties: exact" true b.Rrr.exact)
    (Rrr.bounds eng)

let test_single_point () =
  let points = [| [| 0.4; 0.6; 0.2 |] |] in
  let r = Rrr.max_rank ~points [| 0 |] in
  Alcotest.(check int) "n=1 lo" 1 r.Rrr.lo;
  Alcotest.(check int) "n=1 hi" 1 r.Rrr.hi;
  Alcotest.(check bool) "n=1 exact" true r.Rrr.exact

let test_invalid_args () =
  let points = points_of ~n:5 ~d:2 ~seed:3 in
  Alcotest.check_raises "empty set" (Invalid_argument "Rrr: empty member set")
    (fun () -> ignore (Rrr.max_rank ~points [||]));
  let eng = Rrr.build points in
  Alcotest.check_raises "k < 1" (Invalid_argument "Rrr.query: k must be positive")
    (fun () -> ignore (Rrr.query eng ~k:0))

(* ---- determinism: pool widths and prefix stability ------------------------ *)

let rank_bits (b : Rrr.rank) =
  ( b.Rrr.lo,
    b.Rrr.hi,
    b.Rrr.exact,
    Array.map Int64.bits_of_float b.Rrr.witness )

let test_pool_width_bit_identity () =
  let points = points_of ~n:100 ~d:4 ~seed:17 in
  let reference = with_jobs 1 (fun () -> Rrr.build points) in
  let ref_order = Rrr.order reference in
  let ref_bounds = Array.map rank_bits (Rrr.bounds reference) in
  List.iter
    (fun jobs ->
      let eng = with_jobs jobs (fun () -> Rrr.build points) in
      Alcotest.(check (array int))
        (Printf.sprintf "order identical at jobs=%d" jobs)
        ref_order (Rrr.order eng);
      let bounds = Array.map rank_bits (Rrr.bounds eng) in
      Alcotest.(check int)
        (Printf.sprintf "prefix count at jobs=%d" jobs)
        (Array.length ref_bounds) (Array.length bounds);
      Array.iteri
        (fun i (lo, hi, ex, w) ->
          let lo', hi', ex', w' = bounds.(i) in
          Alcotest.(check int) "lo bits" lo lo';
          Alcotest.(check int) "hi bits" hi hi';
          Alcotest.(check bool) "exact bits" ex ex';
          Alcotest.(check (array int64))
            (Printf.sprintf "witness bits at prefix %d, jobs=%d" (i + 1) jobs)
            w w')
        ref_bounds)
    [ 2; 4 ]

let test_prefix_stability () =
  let points = points_of ~n:80 ~d:3 ~seed:29 in
  let big = Rrr.build ~max_size:8 points in
  let small = Rrr.build ~max_size:3 points in
  let take = Rrr.size small in
  Alcotest.(check bool) "small build nonempty" true (take >= 1);
  Alcotest.(check (array int)) "greedy prefix stable"
    (Array.sub (Rrr.order big) 0 take)
    (Rrr.order small);
  for i = 0 to take - 1 do
    let a = rank_bits (Rrr.bounds big).(i)
    and b = rank_bits (Rrr.bounds small).(i) in
    Alcotest.(check bool)
      (Printf.sprintf "bounds bit-identical at prefix %d" (i + 1))
      true (a = b)
  done

(* ---- serving: wire bit-identity and cache kind isolation ------------------ *)

let write_csv ~name ~n ~d ~seed =
  let st = Testutil.test_rng seed in
  let points = Array.init n (fun _ -> Testutil.random_point st d) in
  let path = Filename.temp_file "kregret_rrr_test" ".csv" in
  Csv_io.save path (Dataset.create ~name points);
  path

let with_server ?cache_capacity f =
  let socket_path = Server.temp_socket_path () in
  let server =
    Server.start_exn (Server.config ?cache_capacity ~socket_path ())
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f ~socket_path server)

let with_client ~socket_path f =
  match Client.connect ~socket_path () with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let load_and_wait c ~name ~path =
  ignore (or_fail "load" (Client.load c ~name ~path));
  or_fail "wait_ready" (Client.wait_ready c ~name)

(* the registry's exact backend on a fresh dataset: normalized rows in
   file order — the offline engine over them is the wire reference *)
let offline_engine path ~k =
  let ds = Dataset.normalize (Csv_io.load path) in
  Rrr.build ~max_size:k ds.Dataset.points

let check_wire ~what eng ~k (sel, lo, hi, exact) =
  let sel_ref, rank_ref = Rrr.query eng ~k in
  Alcotest.(check (list int)) (what ^ ": selection") sel_ref sel;
  Alcotest.(check int) (what ^ ": rank_lo") rank_ref.Rrr.lo lo;
  Alcotest.(check int) (what ^ ": rank_hi") rank_ref.Rrr.hi hi;
  Alcotest.(check bool) (what ^ ": exact") rank_ref.Rrr.exact exact

let test_serve_bit_identical () =
  let path = write_csv ~name:"rrr-e2e" ~n:90 ~d:3 ~seed:41 in
  let k_hi = 6 in
  let eng = offline_engine path ~k:k_hi in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          load_and_wait c ~name:"solo" ~path;
          for k = 1 to k_hi do
            (* solo: cold, then the cached row is the same bits *)
            let a = or_fail "rank_regret" (Client.rank_regret c ~name:"solo" ~k) in
            check_wire ~what:(Printf.sprintf "solo k=%d" k) eng ~k a;
            let a' =
              or_fail "rank_regret warm" (Client.rank_regret c ~name:"solo" ~k)
            in
            Alcotest.(check bool)
              (Printf.sprintf "solo k=%d warm identical" k)
              true (a = a')
          done))

(* raw-frame probe: issue one verb and read the response's cached flag *)
let probe c ~op ~name ~k =
  let frame =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str op); ("name", Json.Str name); ("k", Json.int k) ])
  in
  let j = or_fail op (Client.request c frame) in
  (match Option.bind (Json.member "ok" j) Json.to_bool with
  | Some true -> ()
  | _ -> Alcotest.failf "%s: not ok: %s" op (Json.to_string j));
  match Option.bind (Json.member "cached" j) Json.to_bool with
  | Some b -> (j, b)
  | None -> Alcotest.failf "%s: response has no cached flag" op

(* The cache-key regression (the cross-k lesson, one key dimension
   later): for every ordered pair of verbs, equal
   (fingerprint, approx, epoch, k) with a different kind must MISS.
   Verbs run against one live server; evict purges the fingerprint's rows
   between pairs, so each pair starts from a cold cache. *)
let test_cache_kind_isolation () =
  let path = write_csv ~name:"rrr-kinds" ~n:60 ~d:3 ~seed:53 in
  let k = 2 in
  let eng = offline_engine path ~k in
  let verbs = [ "query"; "mrr"; "rank_regret" ] in
  let pairs =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) verbs)
      verbs
  in
  with_server ~cache_capacity:64 (fun ~socket_path _server ->
      with_client ~socket_path (fun c ->
          List.iter
            (fun (a, b) ->
              let name = Printf.sprintf "kinds-%s-%s" a b in
              load_and_wait c ~name ~path;
              let _, a_cold = probe c ~op:a ~name ~k in
              Alcotest.(check bool)
                (Printf.sprintf "%s cold after load" a)
                false a_cold;
              (* same (fingerprint, approx, epoch, k), different
                 kind: the other verb must not see a's row *)
              let jb, b_cold = probe c ~op:b ~name ~k in
              Alcotest.(check bool)
                (Printf.sprintf "%s misses after %s (kind isolation)" b a)
                false b_cold;
              (* and the miss computed the right answer, not a recycled
                 row of the wrong shape *)
              if b = "rank_regret" then begin
                let sel =
                  Option.bind (Json.member "selection" jb) Json.to_list
                  |> Option.map (List.filter_map Json.to_int)
                  |> Option.get
                in
                let lo =
                  Option.get (Option.bind (Json.member "rank_lo" jb) Json.to_int)
                in
                let hi =
                  Option.get (Option.bind (Json.member "rank_hi" jb) Json.to_int)
                in
                let exact =
                  Option.get (Option.bind (Json.member "exact" jb) Json.to_bool)
                in
                check_wire ~what:(b ^ " after " ^ a) eng ~k (sel, lo, hi, exact)
              end;
              (* sanity: re-asking the same verb IS a hit *)
              let _, a_warm = probe c ~op:a ~name ~k in
              Alcotest.(check bool) (Printf.sprintf "%s warm" a) true a_warm;
              let _, b_warm = probe c ~op:b ~name ~k in
              Alcotest.(check bool) (Printf.sprintf "%s warm" b) true b_warm;
              (* evict purges the fingerprint's cache rows: the next pair
                 starts cold even though it reloads the same bytes *)
              ignore (or_fail "evict" (Client.evict c ~name ())))
            pairs))

let suite =
  [
    Alcotest.test_case "lo monotone along prefixes (d=3)" `Quick
      (check_lo_monotone ~d:3 ~n:80 ~seed:1);
    Alcotest.test_case "lo monotone along prefixes (d=2, exact)" `Quick
      (check_lo_monotone ~d:2 ~n:100 ~seed:2);
    Alcotest.test_case "whole skyline realizes rank 1" `Quick
      test_whole_skyline;
    Alcotest.test_case "happy funnel is not rank-complete" `Quick
      test_happy_not_rank_complete;
    Alcotest.test_case "d=2: exact beats direction sampling" `Quick
      test_d2_exact_vs_sampled;
    Alcotest.test_case "degenerate: duplicates" `Quick
      test_degenerate_duplicates;
    Alcotest.test_case "degenerate: collinear d=2" `Quick
      test_degenerate_collinear;
    Alcotest.test_case "degenerate: axis ties" `Quick test_degenerate_axis_ties;
    Alcotest.test_case "single point" `Quick test_single_point;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "pool-width bit-identity" `Quick
      test_pool_width_bit_identity;
    Alcotest.test_case "greedy prefix stability" `Quick test_prefix_stability;
    Alcotest.test_case "serve: wire bit-identity (solo dataset, cold and \
                        cached)" `Quick
      test_serve_bit_identical;
    Alcotest.test_case "serve: cache kind isolation" `Quick
      test_cache_kind_isolation;
  ]
