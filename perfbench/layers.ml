(* The traced run's in-process half: each layer's public functions called
   on the workload's own generated inputs, under bench-side spans. Work
   counts come from the library's Kregret_obs counters, read as deltas
   around each call. *)

module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Skyline = Kregret_skyline.Skyline
module Happy = Kregret_happy.Happy
module Stored_list = Kregret.Stored_list
module Dynamic = Kregret.Dynamic
module Pipeline = Kregret_approx.Pipeline
module Rrr = Kregret_rrr.Rrr
module Obs = Kregret_obs
module Serve = Kregret_serve
module M = Measure

let counter name =
  Option.value (List.assoc_opt name (Obs.Registry.counters ())) ~default:0

let histogram name =
  match List.assoc_opt name (Obs.Registry.histograms ()) with
  | Some h -> (h.Obs.Histogram.count, h.Obs.Histogram.sum)
  | None -> (0, 0.)

(* [f] under span [name], [reps] times; the result of the last call, the
   median seconds, and how far each counter in [counts] moved during the
   first call *)
let call ?(reps = 1) ?(counts = []) name f =
  let before = List.map counter counts in
  let r, dt = M.time (fun () -> M.Trace.with_ name f) in
  let moved = List.map2 (fun c b -> counter c - b) counts before in
  let ts = Array.make reps dt and r = ref r in
  for i = 1 to reps - 1 do
    let x, dt = M.time (fun () -> M.Trace.with_ name f) in
    r := x;
    ts.(i) <- dt
  done;
  (!r, M.median ts, moved)

(* per-call microseconds of a cheap [f]: the median over 21 batches of
   [batch] calls, one span per batch *)
let per_call_us ?(batch = 2000) name f =
  let ts =
    Array.init 21 (fun _ ->
        snd
          (M.time (fun () ->
               M.Trace.with_ name (fun () ->
                   for i = 1 to batch do
                     ignore (Sys.opaque_identity (f i))
                   done))))
  in
  M.median ts /. float_of_int batch *. 1e6

type acc = {
  mutable csv_s : float;
  mutable normalize_s : float;
  mutable sky_s : float;
  mutable dominance_tests : int;
  mutable sky_size : int;
  mutable happy_s : float;
  mutable probes : int;
  mutable candidates : int;
  mutable kept : int;
  mutable stored_s : float;
  mutable rounds : int;
  mutable dynamic_s : float;
  mutable regions : int;
}

let acc () =
  {
    csv_s = 0.; normalize_s = 0.; sky_s = 0.; dominance_tests = 0;
    sky_size = 0; happy_s = 0.; probes = 0; candidates = 0; kept = 0;
    stored_s = 0.; rounds = 0; dynamic_s = 0.; regions = 0;
  }

let parse path = Csv_io.parse_string ~path (M.read_file path)

(* the serving registry's path for one CSV, stage by stage: read + parse,
   normalize, naive skyline, happy screen, StoredList preprocessing; then
   the whole Dynamic.create those stages add up to *)
let stages a ~max_length ~exact path =
  let ds, t, _ = call ~reps:3 "dataset.csv_load" (fun () -> parse path) in
  a.csv_s <- a.csv_s +. t;
  let nds, t, _ = call ~reps:3 "dataset.normalize" (fun () -> Dataset.normalize ds) in
  a.normalize_s <- a.normalize_s +. t;
  let pts = nds.Dataset.points in
  if exact then begin
    let sky, t, moved =
      call "skyline.naive"
        ~counts:[ "skyline.dominance_tests"; "pool.regions" ]
        (fun () -> Skyline.naive pts)
    in
    a.sky_s <- a.sky_s +. t;
    a.sky_size <- a.sky_size + Array.length sky;
    let sky_pts = Array.map (fun i -> pts.(i)) sky in
    let happy, t, moved' =
      call "happy.happy_points"
        ~counts:[ "happy.subjugation_probes"; "pool.regions" ]
        (fun () -> Happy.happy_points sky_pts)
    in
    a.happy_s <- a.happy_s +. t;
    a.candidates <- a.candidates + Array.length sky_pts;
    a.kept <- a.kept + Array.length happy;
    let happy_pts = Array.map (fun i -> sky_pts.(i)) happy in
    let _, t, moved'' =
      call "core.stored_list_preprocess"
        ~counts:[ "geo_greedy.rounds"; "pool.regions" ]
        (fun () -> Stored_list.preprocess ~max_length happy_pts)
    in
    a.stored_s <- a.stored_s +. t;
    (match (moved, moved', moved'') with
    | [ dom; r1 ], [ probes; r2 ], [ rounds; r3 ] ->
        a.dominance_tests <- a.dominance_tests + dom;
        a.probes <- a.probes + probes;
        a.rounds <- a.rounds + rounds;
        a.regions <- a.regions + r1 + r2 + r3
    | _ -> assert false);
    let _, t, _ =
      call "core.dynamic_create" (fun () -> Dynamic.create ~max_length pts)
    in
    a.dynamic_s <- a.dynamic_s +. t
  end;
  pts

(* inserts of [ins] into a fresh Dynamic over [pts], then deletes of every
   inserted id: median µs per insert and per delete, and the share of the
   updates that bumped the answer epoch *)
let updates ~max_length pts ins =
  let dyn = Dynamic.create ~max_length pts in
  let bumps = ref 0 in
  let timed name f =
    let e0 = Dynamic.epoch dyn in
    let r, dt = M.time (fun () -> M.Trace.with_ name f) in
    if Dynamic.epoch dyn <> e0 then incr bumps;
    (r, dt *. 1e6)
  in
  let ins = Array.map (fun p -> timed "core.dynamic_insert" (fun () -> Dynamic.insert dyn p)) ins in
  let dels =
    Array.map
      (fun (id, _) -> snd (timed "core.dynamic_delete" (fun () -> Dynamic.delete dyn id)))
      ins
  in
  let n = Array.length ins in
  ( M.median (Array.map snd ins),
    M.median dels,
    float_of_int !bumps /. float_of_int (2 * n) )

type inputs = {
  csvs : (string * bool) list;  (* path, exact (false: the approx load) *)
  approx_csv : string;
  resident_csv : string;
  inserts : Vector.t array;
  rr_k : int;
  frames : string array;  (* request frames the workload sends *)
}

let run ~max_length (i : inputs) =
  Obs.Control.set_clock Unix.gettimeofday;
  Obs.Control.set_enabled true;
  Obs.Registry.reset ();
  let a = acc () in
  List.iter (fun (path, exact) -> ignore (stages a ~max_length ~exact path)) i.csvs;
  let imb_count, imb_sum = histogram "pool.region_imbalance" in
  let resident = (Dataset.normalize (parse i.resident_csv)).Dataset.points in
  let apx_pts = (Dataset.normalize (parse i.approx_csv)).Dataset.points in
  let pipe, approx_s, _ =
    call "approx.pipeline" (fun () -> Pipeline.run ~max_length ~eps:0.1 apx_pts)
  in
  let ins_us, del_us, bump_ratio = updates ~max_length resident i.inserts in
  let _, rrr_s, rrr_moved =
    call "rrr.build" ~counts:[ "rrr.rank_evals" ] (fun () ->
        Rrr.build ~max_size:i.rr_k resident)
  in
  (* serve-layer pieces of one cached hit, in isolation *)
  let dyn = Dynamic.create ~max_length resident in
  let nf = Array.length i.frames in
  let parse_us =
    per_call_us "serve.parse" (fun j ->
        Serve.Protocol.parse_request i.frames.(j mod nf))
  in
  let sel, mrr = Dynamic.query dyn ~k:10 in
  let reply =
    [
      ("op", Serve.Json.Str "query");
      ("name", Serve.Json.Str "resident");
      ("k", Serve.Json.int 10);
      ("mrr", Serve.Json.Num mrr);
      ("cached", Serve.Json.Bool true);
      ("coalesced", Serve.Json.Bool false);
      ("selection", Serve.Json.Arr (List.map Serve.Json.int sel));
    ]
  in
  let render_us =
    per_call_us "serve.render" (fun _ -> Serve.Protocol.ok_response reply)
  in
  let stat_us =
    per_call_us ~batch:200 "serve.stat_check" (fun _ ->
        Serve.Fingerprint.sig_of_path i.resident_csv)
  in
  let lru = Serve.Lru.create ~capacity:256 in
  let keys =
    Array.init (2 * max_length) (fun j ->
        ("0123456789abcdef", 1, 0., 0, 1 + (j / 2), if j mod 2 = 0 then "query" else "mrr"))
  in
  Array.iter (fun k -> Serve.Lru.put lru k (sel, mrr)) keys;
  let lru_us =
    per_call_us "serve.lru_get" (fun j ->
        Serve.Lru.get lru keys.(j mod Array.length keys))
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("dataset.csv_load_ms", "ms", a.csv_s *. 1e3);
    ("dataset.normalize_ms", "ms", a.normalize_s *. 1e3);
    ("skyline.naive_ms", "ms", a.sky_s *. 1e3);
    ("skyline.dominance_tests", "count", float_of_int a.dominance_tests);
    ("skyline.size", "count", float_of_int a.sky_size);
    ("happy.happy_points_ms", "ms", a.happy_s *. 1e3);
    ("happy.subjugation_probes", "count", float_of_int a.probes);
    ("happy.kept_ratio", "ratio", ratio a.kept a.candidates);
    ("core.stored_list_preprocess_ms", "ms", a.stored_s *. 1e3);
    ("geo_greedy.rounds", "count", float_of_int a.rounds);
    ("core.dynamic_create_ms", "ms", a.dynamic_s *. 1e3);
    ("core.dynamic_insert_us", "us", ins_us);
    ("core.dynamic_delete_us", "us", del_us);
    ("dynamic.epoch_bump_ratio", "ratio", bump_ratio);
    ("approx.pipeline_ms", "ms", approx_s *. 1e3);
    ("approx.kernel_size", "count",
      float_of_int (Array.length pipe.Pipeline.reduction.Kregret_approx.Kernel.ids));
    ("rrr.build_ms", "ms", rrr_s *. 1e3);
    ("rrr.rank_evals", "count", float_of_int (List.hd rrr_moved));
    ("pool.regions", "count", float_of_int a.regions);
    ("pool.region_imbalance", "ratio",
      if imb_count = 0 then 0. else imb_sum /. float_of_int imb_count);
    ("serve.parse_us", "us", parse_us);
    ("serve.render_us", "us", render_us);
    ("serve.stat_check_us", "us", stat_us);
    ("serve.lru_get_us", "us", lru_us);
  ]
