module Obs = Kregret_obs

let c_connections =
  Obs.Registry.counter "serve.connections" ~help:"accepted connections"

let c_requests = Obs.Registry.counter "serve.requests" ~help:"request frames handled"

let c_errors =
  Obs.Registry.counter "serve.errors" ~help:"requests answered with a structured error"

type config = {
  listeners : Endpoint.t list;
  cache_capacity : int;
  max_line : int;
  retry_after : float;
  max_length : int option;
  workers : int;
  approx : float;  (* server-wide default ε for [load]; 0. = exact *)
}

let config ?(cache_capacity = 128) ?(max_line = Protocol.default_max_line)
    ?(retry_after = 0.05) ?max_length ?(workers = 4) ?(approx = 0.)
    ?(listeners = []) ?socket_path () =
  if cache_capacity < 0 then invalid_arg "Server.config: cache_capacity < 0";
  if max_line < 1 then invalid_arg "Server.config: max_line < 1";
  if workers < 1 then invalid_arg "Server.config: workers < 1";
  if (not (Float.is_finite approx)) || approx < 0. || approx > 1. then
    invalid_arg "Server.config: approx must be in [0, 1]";
  let listeners =
    listeners
    @ match socket_path with Some p -> [ Endpoint.Unix_path p ] | None -> []
  in
  if listeners = [] then
    invalid_arg "Server.config: no listeners (pass ~listeners or ~socket_path)";
  {
    listeners;
    cache_capacity;
    max_line;
    retry_after;
    max_length;
    workers;
    approx;
  }

(* cache values: one shape for [query] (selection + mrr), [mrr], and
   [rank_regret] (selection + certificate; c_mrr unused) *)
type cached = {
  c_selection : int list option;
  c_mrr : float;
  c_rank : (int * int * bool) option;  (* rank_lo, rank_hi, exact *)
}

(* cache/batch key: (fingerprint, approx, epoch, k, kind). The epoch is
   the dataset's answer version, so an insert/delete invalidates by key
   churn — stale rows age out of the LRU with no explicit flush. ε is part
   of the key because the same CSV loaded exact or approximate shares a
   fingerprint while materializing independently: without it the two
   registrations would share (and cross-fill) cache rows — approx and
   exact answers must never collide (the cross-k lesson, one key
   dimension later). *)
type key = string * float * int * int * string

type t = {
  cfg : config;
  reg : Registry.t;
  cache : (key, cached) Lru.t;
  cache_mutex : Mutex.t;
  batcher : (key, cached) Batcher.t;
  resolved : Endpoint.t list;  (* as bound: tcp port 0 replaced *)
  mutable poller : Poller.t option;  (* set before the IO thread runs *)
  mutable io_thread : Thread.t option;
  state_mutex : Mutex.t;
  mutable stopped : bool;
  mutable requests : int;
  mutable errors : int;
  now : unit -> float;
      (* monotonic wall clock: uptime must never go negative across an NTP
         step (see [Kregret_obs.Control.monotonic_of]) *)
  started : float;
}

let registry t = t.reg
let endpoints t = t.resolved

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let poller_of t = with_lock t.state_mutex (fun () -> t.poller)

let live_connections t =
  match poller_of t with Some p -> Poller.live_connections p | None -> 0

let accepted_connections t =
  match poller_of t with Some p -> Poller.accepted p | None -> 0

(* ---- request handling ---------------------------------------------------- *)

let status_str status =
  match status with
  | Registry.Building -> "building"
  | Registry.Ready _ -> "ready"
  | Registry.Failed _ -> "failed"

let count_error t =
  with_lock t.state_mutex (fun () -> t.errors <- t.errors + 1);
  Obs.Counter.incr c_errors

let error t ?retry_after e =
  count_error t;
  Protocol.error_response ?retry_after e

let dataset_json info =
  let base =
    [
      ("name", Json.Str info.Registry.name);
      ("path", Json.Str info.Registry.path);
      ("fingerprint", Json.Str info.Registry.fingerprint);
      ("n", Json.int info.Registry.n);
      ("d", Json.int info.Registry.d);
      ("approx", Json.Num info.Registry.approx);
      ("status", Json.Str (status_str info.Registry.status));
    ]
  in
  let extra =
    match info.Registry.status with
    | Registry.Ready b ->
        [
          ("sky", Json.int b.Registry.n_sky);
          ("happy", Json.int b.Registry.n_happy);
          ( "materialized",
            Json.int (Registry.backend_stored_length b.Registry.backend) );
          ("live", Json.int (Registry.backend_live b.Registry.backend));
          ("epoch", Json.int (Registry.backend_epoch b.Registry.backend));
          ("mutated", Json.Bool info.Registry.mutated);
          ("build_seconds", Json.Num b.Registry.build_seconds);
        ]
    | Registry.Failed m -> [ ("error", Json.Str m) ]
    | Registry.Building -> []
  in
  Json.Obj (base @ extra)

let handle_load t ~name ~path ~approx =
  (* the wire field wins; otherwise the server-wide [--approx] default *)
  let approx = match approx with Some a -> a | None -> t.cfg.approx in
  match Registry.load ~approx t.reg ~name ~path with
  | Error m -> error t (Protocol.err ~code:"load_failed" m)
  | Ok info ->
      Protocol.ok_response
        [
          ("op", Json.Str "load");
          ("name", Json.Str name);
          ("status", Json.Str (status_str info.Registry.status));
          ("fingerprint", Json.Str info.Registry.fingerprint);
          ("n", Json.int info.Registry.n);
          ("d", Json.int info.Registry.d);
          ("approx", Json.Num info.Registry.approx);
        ]

(* The serving hot path. Cache first; on a miss, coalesce concurrent
   identical computations through the batcher, so one StoredList prefix
   scan answers every in-flight duplicate. *)
let handle_query t ~name ~k ~kind =
  match Registry.find t.reg name with
  | None ->
      error t
        (Protocol.err ~code:"not_found"
           (Printf.sprintf "dataset %S is not loaded" name))
  | Some info -> (
      match info.Registry.status with
      | Registry.Building ->
          error t ~retry_after:t.cfg.retry_after
            (Protocol.err ~code:"building"
               (Printf.sprintf "dataset %S is still building" name))
      | Registry.Failed m ->
          error t
            (Protocol.err ~code:"build_failed"
               (Printf.sprintf "dataset %S failed to build: %s" name m))
      | Registry.Ready b -> (
          (* stale-reuse guard: the CSV on disk must still be the bytes this
             StoredList was built from *)
          match Registry.fresh t.reg info with
          | Error m -> error t (Protocol.err ~code:"stale_dataset" m)
          | Ok () ->
              let backend = b.Registry.backend in
              let key =
                ( info.Registry.fingerprint,
                  info.Registry.approx,
                  Registry.backend_epoch backend,
                  k,
                  kind )
              in
              let hit = with_lock t.cache_mutex (fun () -> Lru.get t.cache key) in
              let value, cached, coalesced =
                match hit with
                | Some v -> (v, true, false)
                | None ->
                    let v, coalesced =
                      Batcher.run t.batcher ~key (fun () ->
                          (* ids are the registry's stable external ids: row
                             indices of the loaded CSV, then fresh ids for
                             inserts *)
                          let ids, mrr = Registry.backend_query backend ~k in
                          let v =
                            {
                              c_selection =
                                (if kind = "query" then Some ids else None);
                              c_mrr = mrr;
                              c_rank = None;
                            }
                          in
                          with_lock t.cache_mutex (fun () ->
                              Lru.put t.cache key v);
                          v)
                    in
                    (v, false, coalesced)
              in
              let base =
                [
                  ("op", Json.Str kind);
                  ("name", Json.Str name);
                  ("k", Json.int k);
                  ("mrr", Json.Num value.c_mrr);
                  ("cached", Json.Bool cached);
                  ("coalesced", Json.Bool coalesced);
                ]
              in
              let fields =
                match value.c_selection with
                | Some sel ->
                    base @ [ ("selection", Json.Arr (List.map Json.int sel)) ]
                | None -> base
              in
              Protocol.ok_response fields))

(* rank_regret: the same cache/batch skeleton as [handle_query], with the
   sibling engine behind it. The key's kind dimension ("rank_regret" vs
   "query"/"mrr") keeps the two query families from sharing rows at equal
   (fingerprint, approx, epoch, k) — a rank certificate and a
   regret selection at the same k are different answers. *)
let handle_rank_regret t ~name ~k =
  match Registry.find t.reg name with
  | None ->
      error t
        (Protocol.err ~code:"not_found"
           (Printf.sprintf "dataset %S is not loaded" name))
  | Some info -> (
      match info.Registry.status with
      | Registry.Building ->
          error t ~retry_after:t.cfg.retry_after
            (Protocol.err ~code:"building"
               (Printf.sprintf "dataset %S is still building" name))
      | Registry.Failed m ->
          error t
            (Protocol.err ~code:"build_failed"
               (Printf.sprintf "dataset %S failed to build: %s" name m))
      | Registry.Ready b -> (
          match Registry.fresh t.reg info with
          | Error m -> error t (Protocol.err ~code:"stale_dataset" m)
          | Ok () ->
              let backend = b.Registry.backend in
              let key =
                ( info.Registry.fingerprint,
                  info.Registry.approx,
                  Registry.backend_epoch backend,
                  k,
                  "rank_regret" )
              in
              let hit = with_lock t.cache_mutex (fun () -> Lru.get t.cache key) in
              let value, cached, coalesced =
                match hit with
                | Some v -> (v, true, false)
                | None ->
                    let v, coalesced =
                      Batcher.run t.batcher ~key (fun () ->
                          let ids, rank =
                            Registry.backend_rank_regret backend ~k
                          in
                          let v =
                            {
                              c_selection = Some ids;
                              c_mrr = 0.;
                              c_rank =
                                Some
                                  ( rank.Kregret_rrr.Rrr.lo,
                                    rank.Kregret_rrr.Rrr.hi,
                                    rank.Kregret_rrr.Rrr.exact );
                            }
                          in
                          with_lock t.cache_mutex (fun () ->
                              Lru.put t.cache key v);
                          v)
                    in
                    (v, false, coalesced)
              in
              let lo, hi, exact =
                match value.c_rank with
                | Some c -> c
                | None -> (0, 0, false)  (* unreachable: rrr rows carry c_rank *)
              in
              let sel = Option.value value.c_selection ~default:[] in
              Protocol.ok_response
                [
                  ("op", Json.Str "rank_regret");
                  ("name", Json.Str name);
                  ("k", Json.int k);
                  ("selection", Json.Arr (List.map Json.int sel));
                  ("rank_lo", Json.int lo);
                  ("rank_hi", Json.int hi);
                  ("exact", Json.Bool exact);
                  ("cached", Json.Bool cached);
                  ("coalesced", Json.Bool coalesced);
                ]))

(* insert/delete/flush: hand the op to the registry worker and block this
   worker thread until the incremental repair is published. [building]
   gets the retry hint, like queries. *)
let handle_update t ~name ~kind op =
  match Registry.update t.reg ~name op with
  | Error (("building" as code), m) ->
      error t ~retry_after:t.cfg.retry_after (Protocol.err ~code m)
  | Error (code, m) -> error t (Protocol.err ~code m)
  | Ok o ->
      let base =
        [
          ("op", Json.Str kind);
          ("name", Json.Str name);
          ("applied", Json.Bool o.Registry.applied);
          ("live", Json.int o.Registry.live);
          ("epoch", Json.int o.Registry.epoch);
        ]
      in
      let extra =
        match (o.Registry.inserted_id, kind) with
        | Some id, _ -> [ ("id", Json.int id) ]
        | None, "flush" -> [ ("reclaimed", Json.int o.Registry.reclaimed) ]
        | None, _ -> []
      in
      Protocol.ok_response (base @ extra)

let handle_evict t ~name =
  match name with
  | None ->
      with_lock t.cache_mutex (fun () -> Lru.clear t.cache);
      Protocol.ok_response [ ("op", Json.Str "evict"); ("cleared", Json.Str "cache") ]
  | Some name ->
      (* eviction and cache purge key off one atomic registry removal: the
         evict returns the fingerprint of exactly the entry it removed, so a
         re-load racing this evict keeps its own (new) cache rows and the
         dead entry's rows cannot survive behind a fresh fingerprint read *)
      let evicted_fp = Registry.evict t.reg name in
      (match evicted_fp with
      | Some fp ->
          with_lock t.cache_mutex (fun () ->
              List.iter
                (fun ((kfp, _, _, _, _) as key) ->
                  if String.equal kfp fp then ignore (Lru.remove t.cache key))
                (Lru.keys_mru t.cache))
      | None -> ());
      Protocol.ok_response
        [
          ("op", Json.Str "evict");
          ("name", Json.Str name);
          ("evicted", Json.Bool (Option.is_some evicted_fp));
        ]

let handle_stats t =
  let cs = Lru.stats t.cache in
  let requests, errors =
    with_lock t.state_mutex (fun () -> (t.requests, t.errors))
  in
  (* one locked read: the (leaders, followers) pair counts whole events *)
  let leaders, followers = Batcher.counts t.batcher in
  Protocol.ok_response
    [
      ("op", Json.Str "stats");
      ("proto", Json.Str Protocol.version);
      ("uptime_seconds", Json.Num (t.now () -. t.started));
      ("requests", Json.int requests);
      ("errors", Json.int errors);
      ("datasets", Json.int (List.length (Registry.list t.reg)));
      ( "connections",
        Json.Obj
          [
            ("live", Json.int (live_connections t));
            ("accepted", Json.int (accepted_connections t));
          ] );
      ( "cache",
        Json.Obj
          [
            ("capacity", Json.int (Lru.capacity t.cache));
            ("entries", Json.int (Lru.length t.cache));
            ("hits", Json.int cs.Lru.hits);
            ("misses", Json.int cs.Lru.misses);
            ("evictions", Json.int cs.Lru.evictions);
            ("insertions", Json.int cs.Lru.insertions);
          ] );
      ( "batch",
        Json.Obj
          [ ("leaders", Json.int leaders); ("followers", Json.int followers) ]
      );
    ]

let handle_list t =
  Protocol.ok_response
    [
      ("op", Json.Str "list");
      ("datasets", Json.Arr (List.map dataset_json (Registry.list t.reg)));
    ]

let signal_stop t = match poller_of t with Some p -> Poller.stop p | None -> ()

(* returns (response frame, close connection afterwards) *)
let handle_request t line =
  with_lock t.state_mutex (fun () -> t.requests <- t.requests + 1);
  Obs.Counter.incr c_requests;
  match Protocol.parse_request ~max_line:t.cfg.max_line line with
  | Error e -> (error t e, false)
  | Ok req -> (
      try
        match req with
        | Protocol.Ping -> (Protocol.ok_response [ ("op", Json.Str "ping") ], false)
        | Protocol.List -> (handle_list t, false)
        | Protocol.Stats -> (handle_stats t, false)
        | Protocol.Shutdown ->
            signal_stop t;
            (Protocol.ok_response [ ("op", Json.Str "shutdown") ], true)
        | Protocol.Load { name; path; approx } ->
            (handle_load t ~name ~path ~approx, false)
        | Protocol.Query { name; k } ->
            (handle_query t ~name ~k ~kind:"query", false)
        | Protocol.Mrr { name; k } -> (handle_query t ~name ~k ~kind:"mrr", false)
        | Protocol.Rank_regret { name; k } ->
            (handle_rank_regret t ~name ~k, false)
        | Protocol.Insert { name; point } ->
            (handle_update t ~name ~kind:"insert" (`Insert point), false)
        | Protocol.Delete { name; id } ->
            (handle_update t ~name ~kind:"delete" (`Delete id), false)
        | Protocol.Flush { name } ->
            (handle_update t ~name ~kind:"flush" (`Flush), false)
        | Protocol.Evict { name } -> (handle_evict t ~name, false)
      with e ->
        (* requests never take the server down *)
        (error t (Protocol.err ~code:"internal" (Printexc.to_string e)), false))

(* ---- lifecycle ------------------------------------------------------------ *)

let temp_socket_counter = Atomic.make 0

let temp_socket_path () =
  let base name dir = Filename.concat dir name in
  let name =
    Printf.sprintf "ks-%d-%d.sock" (Unix.getpid ())
      (Atomic.fetch_and_add temp_socket_counter 1)
  in
  let candidate = base name (Filename.get_temp_dir_name ()) in
  (* sun_path is ~108 bytes; sandboxed TMPDIRs can blow past it *)
  if String.length candidate <= 90 then candidate else base name "/tmp"

(* bind every configured endpoint or none: a partial bind closes what it
   opened and fails the start *)
let bind_all eps =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | ep :: rest -> (
        match Endpoint.listen ep with
        | Ok fd -> go ((ep, fd) :: acc) rest
        | Error m ->
            List.iter (fun (_, fd) -> try Unix.close fd with _ -> ()) acc;
            Error (Printf.sprintf "%s: %s" (Endpoint.to_string ep) m))
  in
  go [] eps

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match bind_all cfg.listeners with
  | Error m -> Error m
  | Ok bound ->
      let resolved =
        List.map (fun (ep, fd) -> Endpoint.local_of_fd ~fd ep) bound
      in
      let now = Obs.Control.monotonic_of Unix.gettimeofday in
      let t =
        {
          cfg;
          reg = Registry.create ?max_length:cfg.max_length ();
          cache = Lru.create ~capacity:cfg.cache_capacity;
          cache_mutex = Mutex.create ();
          batcher = Batcher.create ();
          resolved;
          poller = None;
          io_thread = None;
          state_mutex = Mutex.create ();
          stopped = false;
          requests = 0;
          errors = 0;
          now;
          started = now ();
        }
      in
      let poller =
        Poller.create ~workers:cfg.workers ~max_line:cfg.max_line
          ~on_accept:(fun () -> Obs.Counter.incr c_connections)
          ~listeners:(List.map snd bound)
          ~hello:Protocol.hello
          ~handle:(fun line -> handle_request t line)
          ~too_long:(fun () ->
            error t
              (Protocol.err ~code:"frame_too_large"
                 (Printf.sprintf
                    "frame exceeds the %d-byte limit; closing connection"
                    t.cfg.max_line)))
          ()
      in
      t.poller <- Some poller;
      t.io_thread <- Some (Thread.create Poller.run poller);
      Ok t

let start_exn cfg =
  match start cfg with Ok t -> t | Error m -> failwith ("Server.start: " ^ m)

let wait t =
  (match with_lock t.state_mutex (fun () -> t.io_thread) with
  | Some th -> Thread.join th
  | None -> ());
  let cleanup =
    with_lock t.state_mutex (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if cleanup then begin
    Registry.shutdown t.reg;
    List.iter Endpoint.unlink_if_unix t.resolved
  end

let stop t =
  signal_stop t;
  wait t
