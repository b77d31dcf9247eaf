module Vector = Kregret_geom.Vector
module Dataset = Kregret_dataset.Dataset
module Csv_io = Kregret_dataset.Csv_io
module Dynamic = Kregret.Dynamic
module Pipeline = Kregret_approx.Pipeline
module Obs = Kregret_obs

let c_loads =
  Obs.Registry.counter "serve.registry.loads" ~help:"load requests accepted"

let c_builds =
  Obs.Registry.counter "serve.registry.builds" ~help:"background builds completed"

let c_build_failures =
  Obs.Registry.counter "serve.registry.build_failures"
    ~help:"background builds that raised"

let c_build_retries =
  Obs.Registry.counter "serve.registry.build_retries"
    ~help:"failed builds re-enqueued by a re-load of the unchanged file"

let c_updates =
  Obs.Registry.counter "serve.registry.updates"
    ~help:"insert/delete/flush jobs applied on the worker"

let c_update_failures =
  Obs.Registry.counter "serve.registry.update_failures"
    ~help:"update jobs answered with an error"

let c_stale =
  Obs.Registry.counter "serve.stale_rejections"
    ~help:"queries rejected because the CSV changed on disk after load"

let g_datasets =
  Obs.Registry.gauge "serve.registry.datasets" ~help:"datasets currently registered"

(* What queries read: an immutable answer backend plus the summary sizes,
   republished wholesale after every build and every applied update. The
   live [Dynamic.t] itself is touched only by the worker thread; an
   [Approx] pipeline is immutable from birth. *)
type backend =
  | Exact of Dynamic.Snapshot.t
  | Approx of { pipeline : Pipeline.t; points : Vector.t array }

type built = {
  backend : backend;
  n_sky : int;
  n_happy : int;
  build_seconds : float;
}

let backend_query b ~k =
  match b with
  | Exact s -> Dynamic.Snapshot.query s ~k
  | Approx a -> Pipeline.query a.pipeline ~k

let backend_mrr_at b ~k =
  match b with
  | Exact s -> Dynamic.Snapshot.mrr_at s ~k
  | Approx a -> Pipeline.mrr_at a.pipeline ~k

(* Rank-regret rides the same published surfaces: exact answers run the
   engine over the snapshot's live basis (so they track updates epoch for
   epoch, and a fresh unmutated dataset reproduces the offline engine bit
   for bit — the basis is then the normalized rows in file order); approx
   answers take the kernel's skyline as candidates and rank over the full
   input. The engine's greedy prefix is max_size-stable, so per-k builds
   compose across cache keys. *)
let backend_rank_regret b ~k =
  match b with
  | Exact s ->
      let ids, rows = Dynamic.Snapshot.basis s in
      if Array.length rows = 0 then
        invalid_arg "rank_regret: dataset has no live points"
      else begin
        let eng = Kregret_rrr.Rrr.build ~max_size:k rows in
        let sel, rank = Kregret_rrr.Rrr.query eng ~k in
        (List.map (fun r -> ids.(r)) sel, rank)
      end
  | Approx a ->
      let eng =
        Kregret_rrr.Rrr.build ~max_size:k ~candidates:a.pipeline.Pipeline.sky_ids
          a.points
      in
      Kregret_rrr.Rrr.query eng ~k

(* approx datasets are static, so epoch 0 forever is honest — nothing a
   cache keyed on it could miss *)
let backend_epoch = function Exact s -> Dynamic.Snapshot.epoch s | Approx _ -> 0

let backend_live = function
  | Exact s -> Dynamic.Snapshot.live s
  | Approx a -> Array.length a.points

let backend_stored_length = function
  | Exact s -> Dynamic.Snapshot.stored_length s
  | Approx a -> Pipeline.stored_length a.pipeline

type status = Building | Ready of built | Failed of string

type info = {
  name : string;
  path : string;
  fingerprint : string;
  stat : Fingerprint.stat_sig;
  n : int;
  d : int;
  approx : float;
  mutated : bool;
  status : status;
}

type update_op = [ `Insert of Vector.t | `Delete of int | `Flush ]

type update_outcome = {
  applied : bool;
  inserted_id : int option;
  reclaimed : int;
  epoch : int;
  live : int;
}

type update_reply = (update_outcome, string * string) result

type entry = {
  e_name : string;
  e_path : string;
  e_fingerprint : string;
  mutable e_stat : Fingerprint.stat_sig;  (* of the bytes behind e_fingerprint *)
  e_approx : float;  (* 0. = exact; >0. = ε-kernel tier, static *)
  points : Vector.t array;  (* normalized rows, the initial id space *)
  mutable e_dyn : Dynamic.t option;  (* worker-owned once Ready (exact only) *)
  mutable e_mutated : bool;  (* diverged from the CSV via updates *)
  mutable e_status : status;
}

type job =
  | Build of string * string  (* name, fingerprint *)
  | Update of {
      u_name : string;
      u_fingerprint : string;
      u_op : update_op;
      u_cell : update_reply option ref;  (* filled under the mutex *)
    }

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  entries : (string, entry) Hashtbl.t;
  queue : job Queue.t;
  max_length : int option;
  mutable stop : bool;
  mutable worker : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let snapshot e =
  {
    name = e.e_name;
    path = e.e_path;
    fingerprint = e.e_fingerprint;
    stat = e.e_stat;
    n = Array.length e.points;
    d = (if Array.length e.points = 0 then 0 else Vector.dim e.points.(0));
    approx = e.e_approx;
    mutated = e.e_mutated;
    status = e.e_status;
  }

(* the ε-kernel tier is a static materialization with no incremental
   repair; updates against it are rejected with the [static_dataset] wire
   error *)
let static_error name =
  Error
    ( "static_dataset",
      Printf.sprintf
        "dataset %S is an ε-kernel approximation and static; re-load it \
         without \"approx\" to update it"
        name )

(* The full offline pipeline of the paper. Exact: materialized as a
   [Dynamic.t] so later updates repair incrementally. Approx: the static
   ε-kernel pipeline, no [Dynamic] behind it. Runs on the build thread;
   the hot loops inside use the global domain pool. *)
let build ~max_length ~approx points =
  let t0 = Unix.gettimeofday () in
  try
    Obs.Span.with_ "serve.build" (fun () ->
        let dyn, backend, n_sky, n_happy =
          if approx > 0. then begin
            let pipeline = Pipeline.run ?max_length ~eps:approx points in
            ( None,
              Approx { pipeline; points },
              Array.length pipeline.Pipeline.sky_ids,
              Array.length pipeline.Pipeline.happy_ids )
          end
          else begin
            let dyn = Dynamic.create ?max_length points in
            ( Some dyn,
              Exact (Dynamic.snapshot dyn),
              Dynamic.sky_size dyn,
              Dynamic.happy_size dyn )
          end
        in
        let built =
          {
            backend;
            n_sky;
            n_happy;
            build_seconds = Unix.gettimeofday () -. t0;
          }
        in
        Obs.Counter.incr c_builds;
        (dyn, Ready built))
  with e ->
    Obs.Counter.incr c_build_failures;
    (None, Failed (Printexc.to_string e))

(* apply one update on the worker thread, off the mutex; the [Dynamic]
   raises [Invalid_argument] on malformed points, which maps to the
   [bad_point] wire error *)
let apply_update dyn op =
  try
    let outcome =
      match op with
      | `Insert p ->
          let id = Dynamic.insert dyn p in
          {
            applied = true;
            inserted_id = Some id;
            reclaimed = 0;
            epoch = Dynamic.epoch dyn;
            live = Dynamic.live dyn;
          }
      | `Delete id ->
          let ok = Dynamic.delete dyn id in
          {
            applied = ok;
            inserted_id = None;
            reclaimed = 0;
            epoch = Dynamic.epoch dyn;
            live = Dynamic.live dyn;
          }
      | `Flush ->
          let reclaimed = Dynamic.flush dyn in
          {
            applied = reclaimed > 0;
            inserted_id = None;
            reclaimed;
            epoch = Dynamic.epoch dyn;
            live = Dynamic.live dyn;
          }
    in
    Ok outcome
  with Invalid_argument m -> Error ("bad_point", m)

let publish_built dyn ~build_seconds =
  {
    backend = Exact (Dynamic.snapshot dyn);
    n_sky = Dynamic.sky_size dyn;
    n_happy = Dynamic.happy_size dyn;
    build_seconds;
  }

let worker_loop t =
  Mutex.lock t.mutex;
  while not t.stop do
    if Queue.is_empty t.queue then Condition.wait t.cond t.mutex
    else begin
      match Queue.pop t.queue with
      | Build (name, fp) -> (
          match Hashtbl.find_opt t.entries name with
          | Some e
            when String.equal e.e_fingerprint fp
                 && (match e.e_status with Building -> true | _ -> false) ->
              let points = e.points and approx = e.e_approx in
              Mutex.unlock t.mutex;
              let dyn, status = build ~max_length:t.max_length ~approx points in
              Mutex.lock t.mutex;
              (* the entry may have been evicted or replaced while we built —
                 including a same-bytes re-load at a different ε, whose own
                 Build job is still queued *)
              (match Hashtbl.find_opt t.entries name with
              | Some e'
                when String.equal e'.e_fingerprint fp
                     && Float.equal e'.e_approx approx ->
                  e'.e_dyn <- dyn;
                  e'.e_status <- status
              | _ -> ())
          | _ -> ()  (* superseded or evicted job *))
      | Update { u_name; u_fingerprint; u_op; u_cell } -> (
          let reply r =
            (match r with
            | Ok _ -> Obs.Counter.incr c_updates
            | Error _ -> Obs.Counter.incr c_update_failures);
            u_cell := Some r;
            Condition.broadcast t.cond
          in
          match Hashtbl.find_opt t.entries u_name with
          | Some { e_approx; _ } when e_approx > 0. ->
              (* normally rejected at enqueue time; kept for a load that
                 re-registered the name as static while the job sat queued *)
              reply (static_error u_name)
          | Some e
            when String.equal e.e_fingerprint u_fingerprint
                 && (match e.e_status with Ready _ -> true | _ -> false) -> (
              match e.e_dyn with
              | None ->
                  reply
                    (Error
                       ( "internal",
                         Printf.sprintf "dataset %S is ready with no state"
                           u_name ))
              | Some dyn ->
                  let build_seconds =
                    match e.e_status with
                    | Ready b -> b.build_seconds
                    | _ -> 0.
                  in
                  Mutex.unlock t.mutex;
                  let r = apply_update dyn u_op in
                  let published = publish_built dyn ~build_seconds in
                  Mutex.lock t.mutex;
                  (* republish on the same entry only: an evict/re-load that
                     raced the update owns the name now *)
                  (match Hashtbl.find_opt t.entries u_name with
                  | Some e' when e' == e ->
                      e'.e_status <- Ready published;
                      (match r with
                      | Ok { applied = true; reclaimed = 0; _ } ->
                          (* a flush changes no live point, so the CSV still
                             describes the dataset; inserts/deletes diverge *)
                          e'.e_mutated <- true
                      | _ -> ())
                  | _ -> ());
                  reply r)
          | Some { e_status = Building; _ } ->
              reply
                (Error
                   ( "building",
                     Printf.sprintf "dataset %S is still building" u_name ))
          | Some { e_status = Failed m; _ } ->
              reply
                (Error
                   ( "build_failed",
                     Printf.sprintf "dataset %S failed to build: %s" u_name m ))
          | _ ->
              reply
                (Error
                   ( "not_found",
                     Printf.sprintf "dataset %S is not loaded" u_name )))
    end
  done;
  (* drain: outstanding update waiters must not hang on shutdown *)
  Queue.iter
    (function
      | Build _ -> ()
      | Update { u_cell; _ } ->
          u_cell := Some (Error ("internal", "registry is shut down")))
    t.queue;
  Queue.clear t.queue;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let create ?max_length () =
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      entries = Hashtbl.create 16;
      queue = Queue.create ();
      max_length;
      stop = false;
      worker = None;
    }
  in
  t.worker <- Some (Thread.create worker_loop t);
  t

let shutdown t =
  let worker =
    locked t (fun () ->
        t.stop <- true;
        Condition.broadcast t.cond;
        let w = t.worker in
        t.worker <- None;
        w)
  in
  match worker with Some w -> Thread.join w | None -> ()

let load ?(approx = 0.) t ~name ~path =
  let approx = if approx > 0. then approx else 0. in
  (* one read serves both the fingerprint and the parser, so the hash always
     matches the points actually loaded (hashing and re-reading the file
     separately raced concurrent rewrites) *)
  let contents =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let c = really_input_string ic (in_channel_length ic) in
          (* fstat the descriptor the bytes came from: the signature can
             never describe a different file than the hash does *)
          let st = Unix.fstat (Unix.descr_of_in_channel ic) in
          (c, Fingerprint.sig_of_stats st))
    with
    | c -> Ok c
    | exception Sys_error m -> Error m
    | exception Unix.Unix_error (e, _, _) -> Error (path ^ ": " ^ Unix.error_message e)
    | exception End_of_file -> Error (path ^ ": truncated read")
  in
  match contents with
  | Error m -> Error m
  | Ok (contents, stat_sig) -> (
      let fp = Fingerprint.of_string contents in
      match
        try Ok (Dataset.normalize (Csv_io.parse_string ~name ~path contents))
        with
        | Failure m -> Error m
        | Invalid_argument m -> Error (path ^ ": " ^ m)
      with
      | Error m -> Error m
      | Ok ds ->
          locked t (fun () ->
              if t.stop then Error "registry is shut down"
              else begin
                Obs.Counter.incr c_loads;
                match Hashtbl.find_opt t.entries name with
                | Some ({ e_status = Failed _; _ } as e)
                  when String.equal e.e_fingerprint fp
                       && Float.equal e.e_approx approx ->
                    (* same bytes, but the build failed (possibly
                       transiently): an explicit re-load retries instead of
                       parroting the stale failure forever *)
                    Obs.Counter.incr c_build_retries;
                    e.e_stat <- stat_sig;
                    e.e_status <- Building;
                    e.e_dyn <- None;
                    Queue.push (Build (name, fp)) t.queue;
                    Condition.broadcast t.cond;
                    Ok (snapshot e)
                | Some e
                  when String.equal e.e_fingerprint fp
                       && Float.equal e.e_approx approx ->
                    (* unchanged bytes at the same ε: keep the build (or
                       its result) — concurrent loads of the same file are
                       idempotent and enqueue no duplicate job. A different
                       ε is a different materialization and falls through
                       to a rebuild. The
                       signature still refreshes: the bytes were re-verified
                       just now, so a mere touch stops forcing re-hashes on
                       every query. *)
                    e.e_stat <- stat_sig;
                    Ok (snapshot e)
                | _ ->
                    let e =
                      {
                        e_name = name;
                        e_path = path;
                        e_fingerprint = fp;
                        e_stat = stat_sig;
                        e_approx = approx;
                        points = ds.Dataset.points;
                        e_dyn = None;
                        e_mutated = false;
                        e_status = Building;
                      }
                    in
                    Hashtbl.replace t.entries name e;
                    Obs.Gauge.set_int g_datasets (Hashtbl.length t.entries);
                    Queue.push (Build (name, fp)) t.queue;
                    Condition.broadcast t.cond;
                    Ok (snapshot e)
              end))

let update t ~name op =
  let cell = ref None in
  let enqueued =
    locked t (fun () ->
        if t.stop then Error ("internal", "registry is shut down")
        else
          match Hashtbl.find_opt t.entries name with
          | None ->
              Error
                ("not_found", Printf.sprintf "dataset %S is not loaded" name)
          | Some { e_approx; _ } when e_approx > 0. -> static_error name
          | Some { e_status = Building; _ } ->
              Error
                ( "building",
                  Printf.sprintf "dataset %S is still building" name )
          | Some { e_status = Failed m; _ } ->
              Error
                ( "build_failed",
                  Printf.sprintf "dataset %S failed to build: %s" name m )
          | Some e ->
              Queue.push
                (Update
                   {
                     u_name = name;
                     u_fingerprint = e.e_fingerprint;
                     u_op = op;
                     u_cell = cell;
                   })
                t.queue;
              Condition.broadcast t.cond;
              Ok ())
  in
  match enqueued with
  | Error _ as e ->
      Obs.Counter.incr c_update_failures;
      e
  | Ok () ->
      locked t (fun () ->
          while !cell = None && not t.stop do
            Condition.wait t.cond t.mutex
          done;
          match !cell with
          | Some r -> r
          | None -> Error ("internal", "registry is shut down"))

let find t name =
  locked t (fun () ->
      Option.map snapshot (Hashtbl.find_opt t.entries name))

let list t =
  locked t (fun () ->
      Hashtbl.fold (fun _ e acc -> snapshot e :: acc) t.entries []
      |> List.sort (fun a b -> String.compare a.name b.name))

(* Returns the evicted entry's fingerprint so the caller can purge exactly
   the cache rows of the entry that was removed: fetching the fingerprint
   with a separate [find] first raced a concurrent re-load, leaving the new
   entry's rows purged and the dead entry's rows behind. *)
let evict t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | None -> None
      | Some e ->
          Hashtbl.remove t.entries name;
          Obs.Gauge.set_int g_datasets (Hashtbl.length t.entries);
          Some e.e_fingerprint)

let fresh _t info =
  if info.mutated then
    (* the dataset has diverged from its CSV by design: the file is a seed,
       not the source of truth, and rewrites of it are irrelevant until the
       next explicit re-load *)
    Ok ()
  else
    match Fingerprint.sig_of_path info.path with
    | Ok s when s = info.stat ->
        (* fast path (the per-query common case): same inode, size and
           mtime as when the bytes were hashed — nothing to re-read *)
        Ok ()
    | Ok _ | Error _ -> (
    match Fingerprint.of_file info.path with
    | Error m ->
        Obs.Counter.incr c_stale;
        Error
          (Printf.sprintf
             "dataset %S: backing file %s is no longer readable (%s); re-load it"
             info.name info.path m)
    | Ok fp ->
        if String.equal fp info.fingerprint then Ok ()
        else begin
          Obs.Counter.incr c_stale;
          Error
            (Printf.sprintf
               "dataset %S: %s changed on disk since load (loaded %s, file now \
                hashes to %s); re-load it"
               info.name info.path info.fingerprint fp)
        end)
