(* Load generator for the kregret_serve benchmark (see README.md here).

   loadgen.exe --workload build|hit|mixed --seed N --seconds S --trace 0|1
               --server PATH --work DIR --record FILE [--rev REV]

   Generates the workload's datasets from the seed, forks the server,
   drives it over one Unix socket (two for [mixed]), checks every answer
   against the library called in-process, and prints one JSON result line:
   the end-to-end metrics with [--trace 0], the per-layer metrics with
   [--trace 1]. Exits 1 on a setup failure or an answer mismatch. *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Generator = Kregret_dataset.Generator
module Rng = Kregret_dataset.Rng
module Dynamic = Kregret.Dynamic
module Pipeline = Kregret_approx.Pipeline
module Pool = Kregret_parallel.Pool
module Json = Kregret_serve.Json
module Client = Kregret_serve.Client
module H = Harness
module M = Measure

let now = M.now

(* ---- arguments ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let server_exe = ref ""
let work = ref ""
let record = ref ""
let rev = ref "unknown"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "build | hit | mixed");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "1: per-layer metrics");
      ("--server", Arg.Set_string server_exe, "kregret_serve executable");
      ("--work", Arg.Set_string work, "scratch directory (CSVs, socket)");
      ("--record", Arg.Set_string record, "append the run record here");
      ("--rev", Arg.Set_string rev, "source revision for the run record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen.exe --workload W --seed N --seconds S --trace 0|1 --server EXE \
     --work DIR --record FILE"

(* ---- inputs ---------------------------------------------------------------- *)

type spec = {
  label : string;
  dist : string;
  n : int;
  d : int;
  approx : float option;
}

let resident_spec () =
  if !workload = "mixed" then
    { label = "resident"; dist = "anti_correlated"; n = 3000; d = 3; approx = None }
  else { label = "resident"; dist = "anti_correlated"; n = 5000; d = 4; approx = None }

(* The [build] rotation: each case loads most of its cost into a different
   layer (see README.md). *)
let build_specs =
  [|
    { label = "ac4"; dist = "anti_correlated"; n = 10_000; d = 4; approx = None };
    { label = "in3"; dist = "independent"; n = 20_000; d = 3; approx = None };
    { label = "ac6"; dist = "anti_correlated"; n = 3_000; d = 6; approx = None };
    { label = "apx"; dist = "anti_correlated"; n = 10_000; d = 4; approx = Some 0.1 };
  |]

(* every stream of the run derives from --seed *)
let sub_seed i = (!seed * 1_000_003) + i

let write_csv spec i =
  let ds =
    Generator.by_name spec.dist (Rng.create (sub_seed i)) ~n:spec.n ~d:spec.d
  in
  let path = Filename.concat !work (spec.label ^ ".csv") in
  Csv_io.save path ds;
  path

(* the normalized rows exactly as the server's registry parses them *)
let points_of path =
  (Dataset.normalize (Csv_io.parse_string ~path (M.read_file path)))
    .Dataset.points

(* pre-normalized points for [insert], from their own seeded stream *)
let insert_stream ~d i count =
  (Generator.anti_correlated (Rng.create (sub_seed (100 + i))) ~n:count ~d)
    .Dataset.points

(* ---- outcome bookkeeping ------------------------------------------------ *)

(* answer mismatches (any one fails the run), and failures of timed
   operations by error code; both are written from the [mixed] sessions'
   domains *)
let lock = Mutex.create ()
let mismatches = ref []
let errors : (string, int) Hashtbl.t = Hashtbl.create 8

let mismatch fmt =
  Printf.ksprintf
    (fun m ->
      Mutex.protect lock (fun () ->
          if List.length !mismatches < 20 then mismatches := m :: !mismatches))
    fmt

let fail_op code =
  Mutex.protect lock (fun () ->
      Hashtbl.replace errors code
        (1 + Option.value (Hashtbl.find_opt errors code) ~default:0))

let failed_total () = Hashtbl.fold (fun _ n acc -> acc + n) errors 0

(* failures the server counted (everything but transport and bench-side
   codes) — must equal the delta of its [stats] errors counter *)
let server_failures () =
  Hashtbl.fold
    (fun code n acc ->
      if code = "transport" || code = "bench_missing" then acc else acc + n)
    errors 0

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* a served query/mrr reply against an in-process (ids, mrr) answer *)
let check_answer ~what ~kind (ids, mrr) j =
  let got = H.float_field "mrr" j in
  if not (same_float got mrr) then
    mismatch "%s: mrr %.17g, expected %.17g" what got mrr;
  if kind = "query" && H.selection j <> ids then
    mismatch "%s: selection differs from the in-process answer" what

(* ---- set-up ----------------------------------------------------------------- *)

type key = { kind : string; k : int; frame : string; first : string; canon : string }

type session = {
  srv : H.server;
  c : Client.t;
  length : int;
  keys : key array;
  build_s : float;  (* the resident build, as the server timed it *)
}

let ok_exn what = function
  | Ok v -> v
  | Error code -> failwith (Printf.sprintf "%s failed: %s" what code)

(* query and mrr for every k of the materialized list, twice: the first
   pass computes and caches, the second returns the cached bytes every
   later hit must reproduce *)
let warm c ~length =
  let keys =
    List.concat_map
      (fun k ->
        List.map
          (fun kind -> (kind, k, H.op_frame ~name:"resident" ~k kind))
          [ "query"; "mrr" ])
      (List.init length (fun i -> i + 1))
  in
  let pass () =
    List.map (fun (_, _, f) -> snd (ok_exn "warm-up" (H.call c f))) keys
  in
  let first = pass () in
  let canon = pass () in
  Array.of_list
    (List.map2
       (fun ((kind, k, frame), first) canon -> { kind; k; frame; first; canon })
       (List.combine keys first) canon)

(* fork -> listening -> resident dataset loaded, built and warm *)
let setup_once ~csv ~metrics =
  let t0 = now () in
  let srv =
    H.spawn ~exe:!server_exe ~work:!work ~jobs:(H.jobs ~workload:!workload)
      ~metrics
  in
  let c = H.connect srv in
  ignore (ok_exn "load" (H.call c (H.load_frame ~name:"resident" csv)));
  let e = ok_exn "resident build" (H.wait_built c "resident") in
  if H.str_field "status" e <> "ready" then
    failwith ("resident dataset failed to build: " ^ Json.to_string e);
  let length = H.int_field "materialized" e in
  let keys = warm c ~length in
  let build_s = H.float_field "build_seconds" e in
  ({ srv; c; length; keys; build_s }, now () -. t0)

(* Set-up runs [setup_warmups] untimed times, then [setup_reps] timed
   times, each from a fresh process, and reports the median; the last server
   stays up for the timed phase. The untimed rounds absorb the machine's own
   warm-up: the first builds after an idle spell ran 2-3x slower in probes. *)
let setup_warmups = 2
let setup_reps = 5

let setup ~csv ~metrics =
  let rec go i acc =
    let last = i = setup_warmups + setup_reps in
    let s, dt = setup_once ~csv ~metrics:(if last then metrics else None) in
    let acc = if i > setup_warmups then (dt, s.build_s) :: acc else acc in
    if last then (s, Array.of_list (List.rev acc))
    else begin
      Client.close s.c;
      H.stop s.srv;
      go (i + 1) acc
    end
  in
  go 1 []

(* every warmed key once against the in-process build *)
let check_warm s dyn =
  Array.iter
    (fun key ->
      match Json.parse key.first, Json.parse key.canon with
      | Ok first, Ok canon ->
          let expect = Dynamic.query dyn ~k:key.k in
          let what = Printf.sprintf "warm %s k=%d" key.kind key.k in
          check_answer ~what ~kind:key.kind expect first;
          check_answer ~what ~kind:key.kind expect canon
      | _ -> mismatch "warm %s k=%d: unparsable reply" key.kind key.k)
    s.keys

(* ---- results ---------------------------------------------------------------- *)

(* A metric as reported: its value plus, for the run record, the quartiles
   of the samples it was taken from. *)
type metric = { name : string; unit_ : string; value : float; q : M.summary option }

let metric ?q name unit_ value = { name; unit_; value; q }

(* the median of [samples], with their quartiles *)
let metric_med name unit_ samples =
  let q = M.summarize samples in
  { name; unit_; value = q.median; q = Some q }

(* The timed phase of a workload, as the end-to-end metrics see it. Latency
   samples are seconds with failures as +infinity; a percentile that lands
   on a failure reports the length of the timed phase, an upper bound for
   any completed operation. *)
type phase = {
  attempted : int;
  ok : int;
  elapsed : float;
  cpu_ns : int;
  metrics : metric list;
  detail : (string * Json.t) list;  (* run record only *)
}

let ms_of ~elapsed x = 1000. *. if Float.is_finite x then x else elapsed

(* ---- workload: build --------------------------------------------------------- *)

type build_op = {
  case : int;
  lat : float;
  answer : Json.t option;  (* the first query reply, on success *)
  build_s : float;
}

let build_op c ~i ~case ~(spec : spec) ~path =
  let name = Printf.sprintf "b%d" i in
  M.Trace.with_ ("op.build." ^ spec.label) @@ fun () ->
  let t0 = now () in
  let r =
    match
      M.Trace.with_ "client.load" (fun () ->
          H.call c (H.load_frame ?approx:spec.approx ~name path))
    with
    | Error code -> Error code
    | Ok _ -> (
        match M.Trace.with_ "client.poll" (fun () -> H.wait_built c name) with
        | Error code -> Error code
        | Ok e -> (
            match
              M.Trace.with_ "client.query" (fun () ->
                  H.call c (H.op_frame ~name ~k:10 "query"))
            with
            | Error code -> Error code
            | Ok (j, _) -> Ok (j, H.float_field "build_seconds" e)))
  in
  let lat = now () -. t0 in
  let evicted =
    M.Trace.with_ "client.evict" (fun () -> H.call c (H.op_frame ~name "evict"))
  in
  match (r, evicted) with
  | Ok (j, build_s), Ok _ -> { case; lat; answer = Some j; build_s }
  | Error code, _ | Ok _, Error code ->
      fail_op code;
      { case; lat = Float.infinity; answer = None; build_s = Float.nan }

let run_build (s : session) cases ~pid =
  (* one untimed operation first: the first build after start-up pays for
     page faults and lazy initialisation that no later one sees *)
  let apx = Array.length cases - 1 in
  ignore (build_op s.c ~i:0 ~case:apx ~spec:(fst cases.(apx)) ~path:(snd cases.(apx)));
  Hashtbl.reset errors;
  let before = H.counters s.c in
  let cpu0 = M.cpu_ns pid in
  let t_start = now () in
  let ops = ref [] and i = ref 1 in
  (* whole rotations only, so every run weighs the four cases alike *)
  while now () -. t_start < !seconds do
    Array.iteri
      (fun case (spec, path) ->
        ops := build_op s.c ~i:!i ~case ~spec ~path :: !ops;
        incr i)
      cases
  done;
  let elapsed = now () -. t_start in
  let cpu_ns = M.cpu_ns pid - cpu0 in
  let delta = H.diff before (H.counters s.c) in
  let ops = Array.of_list (List.rev !ops) in
  (ops, elapsed, cpu_ns, delta)

(* each case's first answer, computed in-process from the same CSV *)
let expect_build cases =
  Array.map
    (fun ((spec : spec), path) ->
      let pts = points_of path in
      match spec.approx with
      | None -> Dynamic.query (Dynamic.create ~max_length:H.max_k pts) ~k:10
      | Some eps -> Pipeline.query (Pipeline.run ~max_length:H.max_k ~eps pts) ~k:10)
    cases

let check_build cases expected ops =
  Array.iter
    (fun op ->
      Option.iter
        (check_answer
           ~what:("build " ^ (fst cases.(op.case)).label)
           ~kind:"query" expected.(op.case))
        op.answer)
    ops

(* ---- workload: hit ------------------------------------------------------------ *)

(* The timed phase is cut into windows of this length. Latency percentiles,
   throughput and CPU per op are taken per window and reported as the median
   over the calmer half of the windows by machine steal time: a window in
   which the hypervisor gave the vCPUs to another tenant measures that
   tenant, not the server (probes: runs with 9-15 s of steal doubled the
   per-window p99 in most of their windows). *)
let window = 0.5

type win = {
  w_lat : float array;
  w_ok : int;
  w_dt : float;
  w_cpu : int;
  w_steal : float;
}

let run_hit (s : session) ~pid =
  let keys = s.keys in
  let nk = Array.length keys in
  let spans = Array.map (fun key -> "client." ^ key.kind) keys in
  let before = H.counters s.c in
  let lat = M.Buf.create () in
  let wins = ref [] in
  let n_win = max 1 (int_of_float (Float.round (!seconds /. window))) in
  let t_start = now () in
  let i = ref 0 in
  for w = 1 to n_win do
    let w_end = t_start +. (float_of_int w *. window) in
    let i0 = lat.M.Buf.len and ok = ref 0 in
    let cpu0 = M.cpu_ns pid and steal0 = M.steal_s () and t0 = now () in
    while now () < w_end do
      let j = !i mod nk in
      incr i;
      let key = keys.(j) in
      let t = now () in
      let r =
        M.Trace.with_ spans.(j) (fun () -> Client.request_raw s.c key.frame)
      in
      let dt = now () -. t in
      match r with
      | Ok raw when String.equal raw key.canon ->
          incr ok;
          M.Buf.push lat dt
      | Ok raw -> (
          match Json.parse raw with
          | Ok reply when Json.member "ok" reply = Some (Json.Bool true) ->
              mismatch "hit %s k=%d: reply differs from its first cached reply"
                key.kind key.k;
              incr ok;
              M.Buf.push lat dt
          | Ok reply ->
              fail_op (H.error_code reply);
              M.Buf.push lat Float.infinity
          | Error _ ->
              fail_op "transport";
              M.Buf.push lat Float.infinity)
      | Error _ ->
          fail_op "transport";
          M.Buf.push lat Float.infinity
    done;
    wins :=
      {
        w_lat = M.Buf.sub lat i0 lat.M.Buf.len;
        w_ok = !ok;
        w_dt = now () -. t0;
        w_cpu = M.cpu_ns pid - cpu0;
        w_steal = M.steal_s () -. steal0;
      }
      :: !wins
  done;
  let elapsed = now () -. t_start in
  let delta = H.diff before (H.counters s.c) in
  (Array.of_list (List.rev !wins), elapsed, delta)

(* ---- workload: mixed ----------------------------------------------------------- *)

type mixed_session = {
  reads : M.Buf.t;
  writes : M.Buf.t;
  ranks : M.Buf.t;
  mutable attempted : int;
  mutable succeeded : int;
  mutable inserted : (int * Vector.t) list;  (* acknowledged, with ids *)
  mutable deleted : int list;  (* acknowledged *)
}

let insert_frame p =
  H.frame
    [
      ("op", Json.Str "insert");
      ("name", Json.Str "resident");
      ("point", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) p)));
    ]

let delete_frame id =
  H.frame
    [ ("op", Json.Str "delete"); ("name", Json.Str "resident"); ("id", Json.int id) ]

(* One session: a closed loop of ~88% query/mrr reads, ~10% insert/delete
   pairs and ~2% rank_regret misses, from its own seeded stream. A session
   deletes only ids it inserted itself. *)
let mixed_session srv ~sid ~length ~d ~t_end =
  let c = H.connect srv in
  let rng = Rng.create (sub_seed (200 + sid)) in
  let pts = insert_stream ~d sid 20_000 in
  let next = ref 0 and own = ref [] in
  let r =
    {
      reads = M.Buf.create (); writes = M.Buf.create (); ranks = M.Buf.create ();
      attempted = 0; succeeded = 0; inserted = []; deleted = [];
    }
  in
  let timed buf span frame =
    r.attempted <- r.attempted + 1;
    let t = now () in
    let res = M.Trace.with_ span (fun () -> H.call c frame) in
    let dt = now () -. t in
    (match res with
    | Ok _ ->
        r.succeeded <- r.succeeded + 1;
        M.Buf.push buf dt
    | Error code ->
        fail_op code;
        M.Buf.push buf Float.infinity);
    res
  in
  while now () < t_end do
    let u = Rng.float rng in
    if u < 0.02 then
      ignore
        (timed r.ranks "client.rank_regret"
           (H.op_frame ~name:"resident" ~k:(2 + Rng.int rng 11) "rank_regret"))
    else if u < 0.07 then begin
      let p = pts.(!next mod Array.length pts) in
      incr next;
      (match timed r.writes "client.insert" (insert_frame p) with
      | Ok (j, _) ->
          let id = H.int_field "id" j in
          own := id :: !own;
          r.inserted <- (id, p) :: r.inserted
      | Error _ -> ());
      match !own with
      | [] -> ()
      | ids -> (
          let id = List.nth ids (Rng.int rng (List.length ids)) in
          own := List.filter (( <> ) id) ids;
          match timed r.writes "client.delete" (delete_frame id) with
          | Ok (j, _) ->
              if Json.member "applied" j <> Some (Json.Bool true) then
                mismatch "delete of live id %d was a no-op" id;
              r.deleted <- id :: r.deleted
          | Error _ -> own := id :: !own)
    end
    else
      let kind = if Rng.int rng 2 = 0 then "query" else "mrr" in
      ignore
        (timed r.reads ("client." ^ kind)
           (H.op_frame ~name:"resident" ~k:(1 + Rng.int rng length) kind))
  done;
  Client.close c;
  r

let run_mixed (s : session) ~pid ~d =
  let before = H.counters s.c in
  let cpu0 = M.cpu_ns pid in
  let t_start = now () in
  let t_end = t_start +. !seconds in
  let sessions =
    List.init 2 (fun sid ->
        Domain.spawn (fun () ->
            mixed_session s.srv ~sid ~length:s.length ~d ~t_end))
    |> List.map Domain.join
  in
  let elapsed = now () -. t_start in
  let cpu_ns = M.cpu_ns pid - cpu0 in
  let delta = H.diff before (H.counters s.c) in
  (sessions, elapsed, cpu_ns, delta)

(* rebuild in-process from the acknowledged updates, ordered by returned id,
   and compare every k against the server *)
let check_mixed (s : session) base sessions =
  let deleted = List.concat_map (fun r -> r.deleted) sessions in
  let live =
    List.concat_map (fun r -> r.inserted) sessions
    |> List.filter (fun (id, _) -> not (List.mem id deleted))
    |> List.sort compare
  in
  let rows = Array.append base (Array.of_list (List.map snd live)) in
  let ids =
    Array.append
      (Array.init (Array.length base) Fun.id)
      (Array.of_list (List.map fst live))
  in
  let dyn = Dynamic.create ~max_length:H.max_k rows in
  (match H.call s.c H.list_frame with
  | Ok (j, _) -> (
      match H.entry j "resident" with
      | Some e when H.int_field "live" e <> Array.length rows ->
          mismatch "mixed: server has %d live points, replay has %d"
            (H.int_field "live" e) (Array.length rows)
      | _ -> ())
  | Error code -> mismatch "mixed: list failed (%s)" code);
  for k = 1 to max 1 (Dynamic.stored_length dyn) do
    let sel, mrr = Dynamic.query dyn ~k in
    match H.call s.c (H.op_frame ~name:"resident" ~k "query") with
    | Ok (j, _) ->
        check_answer
          ~what:(Printf.sprintf "mixed replay k=%d" k)
          ~kind:"query"
          (List.map (fun i -> ids.(i)) sel, mrr)
          j
    | Error code -> mismatch "mixed replay k=%d: %s" k code
  done

(* ---- the run -------------------------------------------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* latency percentiles in ms over [lats] (seconds; failures +infinity) *)
let pct ~elapsed lats q =
  if Array.length lats = 0 then 0.
  else ms_of ~elapsed (M.quantile (M.sorted lats) q)

let e2e_build ops ~elapsed ~cpu_ns =
  let lats = Array.map (fun o -> o.lat) ops in
  let ok = Array.fold_left (fun n o -> if o.answer <> None then n + 1 else n) 0 ops in
  let attempted = Array.length ops in
  let q = M.summarize (Array.map (fun x -> ms_of ~elapsed x) lats) in
  {
    attempted;
    ok;
    elapsed;
    cpu_ns;
    metrics =
      [
        metric "ok_ratio" "ratio" (ratio ok attempted);
        metric "ops_per_s" "1/s" (float_of_int ok /. elapsed);
        metric ~q "p50_ms" "ms" (pct ~elapsed lats 0.5);
        metric ~q "p99_ms" "ms" (pct ~elapsed lats 0.99);
        metric "server_cpu_ms_per_op" "ms"
          (float_of_int cpu_ns /. 1e6 /. float_of_int attempted);
      ];
    detail =
      Array.to_list
        (Array.mapi
           (fun case (spec : spec) ->
             let l =
               Array.of_list
                 (List.filter_map
                    (fun o -> if o.case = case then Some (ms_of ~elapsed o.lat) else None)
                    (Array.to_list ops))
             in
             ( "case_" ^ spec.label ^ "_ms",
               if l = [||] then Json.Null else Json.Num (M.median l) ))
           build_specs);
  }

let e2e_hit wins ~elapsed =
  let attempted = Array.fold_left (fun n w -> n + Array.length w.w_lat) 0 wins in
  let ok = Array.fold_left (fun n w -> n + w.w_ok) 0 wins in
  let calm =
    Array.to_list wins
    |> List.filter (fun w -> Array.length w.w_lat > 0)
    |> List.stable_sort (fun a b -> Float.compare a.w_steal b.w_steal)
    |> fun ws -> List.filteri (fun i _ -> 2 * i < max 1 (List.length ws)) ws
    |> Array.of_list
  in
  let per f = Array.map f calm in
  let wpct q = per (fun w -> pct ~elapsed w.w_lat q) in
  {
    attempted;
    ok;
    elapsed;
    cpu_ns = Array.fold_left (fun n w -> n + w.w_cpu) 0 wins;
    metrics =
      [
        metric "ok_ratio" "ratio" (ratio ok attempted);
        metric_med "ops_per_s" "1/s" (per (fun w -> float_of_int w.w_ok /. w.w_dt));
        metric_med "p50_ms" "ms" (wpct 0.5);
        metric_med "p99_ms" "ms" (wpct 0.99);
        metric_med "server_cpu_ms_per_op" "ms"
          (per (fun w ->
               float_of_int w.w_cpu /. 1e6 /. float_of_int (Array.length w.w_lat)));
      ];
    detail =
      [
        ("windows", Json.int (Array.length wins));
        ("windows_used", Json.int (Array.length calm));
        ("samples", Json.int attempted);
        ("window_steal_s", Json.Arr (Array.to_list (Array.map (fun w -> Json.Num w.w_steal) wins)));
      ];
  }

let e2e_mixed sessions ~elapsed ~cpu_ns =
  let cat f = Array.concat (List.map (fun r -> M.Buf.to_array (f r)) sessions) in
  let attempted = List.fold_left (fun n r -> n + r.attempted) 0 sessions in
  let ok = List.fold_left (fun n r -> n + r.succeeded) 0 sessions in
  let reads = cat (fun r -> r.reads) and writes = cat (fun r -> r.writes) in
  let ranks = cat (fun r -> r.ranks) in
  {
    attempted;
    ok;
    elapsed;
    cpu_ns;
    metrics =
      [
        metric "ok_ratio" "ratio" (ratio ok attempted);
        metric "ops_per_s" "1/s" (float_of_int ok /. elapsed);
        metric "p50_ms" "ms" (pct ~elapsed reads 0.5);
        metric "p99_ms" "ms" (pct ~elapsed reads 0.99);
        metric "update_p50_ms" "ms" (pct ~elapsed writes 0.5);
        metric "server_cpu_ms_per_op" "ms"
          (float_of_int cpu_ns /. 1e6 /. float_of_int (max 1 attempted));
      ];
    detail =
      [
        ("reads", Json.int (Array.length reads));
        ("writes", Json.int (Array.length writes));
        ("rank_regret", Json.int (Array.length ranks));
        ("rank_regret_p50_ms", Json.Num (pct ~elapsed ranks 0.5));
      ];
  }

let error_codes =
  [
    "parse_error"; "bad_request"; "missing_field"; "bad_field"; "unknown_op";
    "frame_too_large"; "not_found"; "building"; "build_failed"; "load_failed";
    "stale_dataset"; "static_dataset"; "bad_point"; "internal";
  ]

let json_of_metrics ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

let record_of_metric m =
  ( m.name,
    Json.Obj
      ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
      @
      match m.q with
      | Some q ->
          [
            ("median", Json.Num q.M.median);
            ("q1", Json.Num q.M.q1);
            ("q3", Json.Num q.M.q3);
            ("samples", Json.int q.M.n);
          ]
      | None -> []) )

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let main () =
  if not (List.mem !workload [ "build"; "hit"; "mixed" ]) then
    failwith ("unknown workload " ^ !workload);
  (* in-process references and layer calls run on one domain, leaving the
     other core to the server; answers are identical at any width *)
  Pool.set_jobs 1;
  (* a server that dies mid-run must surface as failed requests, not kill
     the load generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a larger minor heap keeps the load generator's own collections out of
     the latency tail *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
  M.Trace.enabled := !trace = 1;
  mkdir_p !work;
  let res_spec = resident_spec () in
  let resident = write_csv res_spec 0 in
  let cases =
    if !workload = "build" then
      Array.mapi (fun i spec -> (spec, write_csv spec (i + 1))) build_specs
    else [||]
  in
  let metrics_path =
    if !trace = 1 then Some (Filename.concat !work "server-metrics.json") else None
  in
  (match metrics_path with Some p when Sys.file_exists p -> Sys.remove p | _ -> ());
  (* the in-process references come first: they are needed for the checks
     anyway, and they keep both cores busy before anything is timed *)
  let reference = Dynamic.create ~max_length:H.max_k (points_of resident) in
  let expected = expect_build cases in
  let steal0 = M.steal_s () and load0 = M.loadavg1 () in
  let s, setups = setup ~csv:resident ~metrics:metrics_path in
  let setup_times = Array.map fst setups in
  let resident_build_s = M.median (Array.map snd setups) in
  let pid = s.srv.H.pid in
  let phase, delta, check =
    match !workload with
    | "build" ->
        let ops, elapsed, cpu_ns, delta = run_build s cases ~pid in
        let build_s =
          Array.to_list ops
          |> List.filter_map (fun o ->
                 if Float.is_nan o.build_s then None else Some o.build_s)
          |> Array.of_list
        in
        ( e2e_build ops ~elapsed ~cpu_ns,
          delta,
          fun () ->
            check_build cases expected ops;
            if build_s = [||] then resident_build_s else M.median build_s )
    | "hit" ->
        let wins, elapsed, delta = run_hit s ~pid in
        if delta.H.misses <> 0 then
          mismatch "hit: %d cache misses during the timed phase" delta.H.misses;
        (e2e_hit wins ~elapsed, delta, fun () -> resident_build_s)
    | _ ->
        let sessions, elapsed, cpu_ns, delta = run_mixed s ~pid ~d:res_spec.d in
        ( e2e_mixed sessions ~elapsed ~cpu_ns,
          delta,
          fun () ->
            check_mixed s (points_of resident) sessions;
            resident_build_s )
  in
  let steal = M.steal_s () -. steal0 and load1 = M.loadavg1 () in
  let ping_us =
    if !trace = 1 then
      M.median
        (Array.init 2000 (fun _ ->
             snd
               (M.time (fun () ->
                    M.Trace.with_ "client.ping" (fun () ->
                        H.call s.c (H.op_frame "ping"))))))
      *. 1e6
    else 0.
  in
  let rss = M.peak_rss_mb pid in
  (* the mixed replay runs against the live server *)
  let build_s = check () in
  Client.close s.c;
  H.stop s.srv;
  check_warm s reference;
  if server_failures () <> delta.H.errors then
    mismatch "failure accounting: %d failed operations, server counted %d errors"
      (server_failures ()) delta.H.errors;
  let e2e =
    metric_med "setup_s" "s" setup_times
    :: phase.metrics
    @ [ metric "server_rss_mb" "MiB" rss ]
  in
  let per_layer =
    if !trace = 0 then []
    else begin
      let exported =
        match metrics_path with
        | Some p when Sys.file_exists p -> (
            match Json.parse (M.read_file p) with Ok j -> Some j | Error _ -> None)
        | _ -> None
      in
      let export_build_ms =
        match Option.bind exported (Json.member "spans") with
        | Some (Json.Arr spans) ->
            List.fold_left
              (fun acc sp ->
                if Option.bind (Json.member "name" sp) Json.to_str = Some "serve.build"
                then
                  1000.
                  *. H.float_field "seconds" sp
                  /. float_of_int (max 1 (H.int_field "count" sp))
                else acc)
              0. spans
        | _ -> 0.
      in
      let inputs =
        {
          Layers.csvs =
            (if cases = [||] then [ (resident, true) ]
             else
               Array.to_list
                 (Array.map (fun ((sp : spec), p) -> (p, sp.approx = None)) cases));
          approx_csv =
            (if cases = [||] then resident else snd cases.(Array.length cases - 1));
          resident_csv = resident;
          inserts = insert_stream ~d:res_spec.d 9 40;
          rr_k = 8;
          frames = Array.map (fun k -> k.frame) s.keys;
        }
      in
      let layer = Layers.run ~max_length:H.max_k inputs in
      let errs =
        ("serve.errors.total", "count", float_of_int (failed_total ()))
        :: List.map
             (fun code ->
               ( "serve.errors." ^ code,
                 "count",
                 float_of_int (Option.value (Hashtbl.find_opt errors code) ~default:0) ))
             (error_codes @ [ "transport" ])
      in
      List.map
        (fun (n, u, v) -> metric n u v)
        (layer @ errs
        @ [
            ("serve.ping_rtt_us", "us", ping_us);
            ("serve.cache_hit_ratio", "ratio", ratio delta.H.hits (delta.H.hits + delta.H.misses));
            ( "serve.batch_follower_ratio",
              "ratio",
              ratio delta.H.followers (delta.H.leaders + delta.H.followers) );
            ("serve.build_s", "s", build_s);
            ("serve.export_build_ms", "ms", export_build_ms);
          ])
    end
  in
  let failed = phase.attempted - phase.ok in
  let correct = !mismatches = [] in
  List.iter (fun m -> Printf.eprintf "loadgen: MISMATCH %s\n" m) (List.rev !mismatches);
  if !trace = 1 then begin
    let agg = M.Trace.aggregate () in
    let spans_json =
      Json.Obj
        [
          ( "aggregate",
            Json.Arr
              (List.map
                 (fun (name, (count, total, self)) ->
                   Json.Obj
                     [
                       ("name", Json.Str name); ("count", Json.int count);
                       ("seconds", Json.Num total); ("self_seconds", Json.Num self);
                     ])
                 agg) );
          ( "recent",
            Json.Arr
              (List.map
                 (fun sp ->
                   Json.Obj
                     [
                       ("id", Json.int sp.M.Trace.id); ("parent", Json.int sp.M.Trace.parent);
                       ("name", Json.Str sp.M.Trace.name); ("t0", Json.Num sp.M.Trace.t0);
                       ("t1", Json.Num sp.M.Trace.t1);
                     ])
                 (M.Trace.recent 2000)) );
        ]
    in
    Out_channel.with_open_bin
      (Filename.concat !work (Printf.sprintf "spans-%s-%d.json" !workload !seed))
      (fun oc -> output_string oc (Json.to_string spans_json ^ "\n"))
  end;
  if !record <> "" then begin
    mkdir_p (Filename.dirname !record);
    let line =
      Json.Obj
        [
          ("workload", Json.Str !workload);
          ("seed", Json.int !seed);
          ("trace", Json.int !trace);
          ("seconds", Json.Num !seconds);
          ("rev", Json.Str !rev);
          ("nproc", Json.int (Domain.recommended_domain_count ()));
          ("ocaml", Json.Str Sys.ocaml_version);
          ("server_flags", Json.Arr (List.map (fun f -> Json.Str f) (H.flags ~jobs:(H.jobs ~workload:!workload))));
          ("attempted", Json.int phase.attempted);
          ("failed", Json.int failed);
          ("correct", Json.Bool correct);
          ("elapsed_s", Json.Num phase.elapsed);
          ("steal_s", Json.Num steal);
          ("loadavg_start", Json.Num load0);
          ("loadavg_end", Json.Num load1);
          ("setup_samples_s", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) setup_times)));
          ( "errors",
            Json.Obj
              (Hashtbl.fold (fun code n acc -> (code, Json.int n) :: acc) errors []
              |> List.sort compare) );
          ("server_errors_delta", Json.int delta.H.errors);
          ("detail", Json.Obj phase.detail);
          ("end_to_end", Json.Obj (List.map record_of_metric e2e));
          ("per_layer", Json.Obj (List.map record_of_metric per_layer));
        ]
    in
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 !record
      (fun oc -> output_string oc (Json.to_string line ^ "\n"))
  end;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.int phase.attempted);
        ("failed", Json.int failed);
        ("metrics", json_of_metrics (if !trace = 1 then per_layer else e2e));
      ]
  in
  print_endline (Json.to_string result);
  if not correct then exit 1

let () =
  try main ()
  with Failure m | Sys_error m | Invalid_argument m ->
    Printf.eprintf "loadgen: %s\n" m;
    exit 1
