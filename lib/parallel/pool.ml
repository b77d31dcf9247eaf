(* Fixed-size domain pool on stdlib Domain/Mutex/Condition/Atomic.

   Design notes (see DESIGN.md "Parallel substrate"):

   - Each parallel region allocates a fresh [job] record holding its own
     atomic chunk counter and completion count. Workers take a snapshot of
     [t.current] under the pool mutex, then race on the job's *own* atomic
     counter for chunks. A lagging worker from a previous region still holds
     the *old* job record, whose counter is exhausted — it can never steal or
     re-run a chunk of the next region. This is what makes back-to-back
     regions safe without waiting for worker quiescence.

   - Memory model: the caller publishes the job record by writing
     [t.current] and bumping [t.generation] under the mutex; workers read
     both under the same mutex, which establishes the happens-before edge
     for everything the body closure captures. Completion travels the other
     way: workers decrement [job.unfinished] under the mutex and the caller
     waits on it under the mutex, so all body writes are visible to the
     caller when the region returns.

   - Determinism: chunk boundaries are a pure function of the range and
     [chunk_size] (never of [jobs]), and [map_reduce] folds chunk results
     left-to-right on the caller. Parallelism decides only *when* a chunk
     runs, never *what* it computes or how results combine.

   - Granularity model (ISSUE 6). Regions carry an optional [?cost] hint:
     the caller's estimate of the work per index, in arbitrary units
     calibrated as ~nanoseconds (default [default_cost] = 1000). The plan
     derived from it is a pure function of (n, cost, chunk_size) — never
     of [jobs] — so it preserves the bit-identity contract:

       - inline threshold: when [n * cost < inline_cutoff] (~50 us) the
         whole region is a single chunk and runs on the caller, paying
         zero pool machinery. Small regions (GeoGreedy event rescans over
         a few hundred candidates, tiny happy sets) used to be split into
         64 chunks whose scheduling cost exceeded their work — the
         sub-1x jobs=2 "speedup" in BENCH_scal.json before this change.
       - adaptive chunk size: otherwise chunks carry at least
         [target_chunk_cost] (~200 us) of estimated work each, capped at
         [max_chunks] = 64 chunks per region, so per-chunk scheduling
         (one atomic fetch-add + one mutex round per chunk) stays well
         under 1% of chunk work while still load-balancing up to ~16
         domains.

     An explicit [?chunk_size] bypasses the model entirely (tests pin
     exact boundaries with it).

   - Oversubscription cap (ISSUE 6). A pool requested with [jobs] domains
     spawns at most [recommended_domain_count () - 1] workers: extra
     domains beyond the physical cores cannot add throughput, but they do
     add context switches and — much worse on OCaml 5 — stop-the-world
     minor-GC synchronisation across domains time-sharing one core. This
     was the other half of the sub-1x jobs=2 regression on single-core CI
     runners. The cap changes only which domain executes a chunk; chunk
     boundaries and fold order still come from the plan above, so results
     are bit-identical to the uncapped pool. [jobs t] keeps reporting the
     requested width; nested-region rejection also keys on the requested
     width, so code that is wrong on a multicore box fails on a capped
     box too.

   - Concurrent callers. The pool runs one region at a time. A region
     entered by a thread while another thread's region holds the pool
     runs inline on the entering thread — the same chunks in the same
     order as the capped inline path, so results stay bit-identical. A
     region entered from inside a running body is misuse and raises:
     bodies run either on a worker domain (tagged domain-locally) or on
     a thread already listed in [active], so nesting is keyed on the
     entering thread: a second thread's region is concurrent, not
     nested. *)

module Obs = Kregret_obs

(* Observability. [regions]/[chunks] are pure functions of the call sites
   and index ranges — never of the pool width — so they are bit-identical
   across KREGRET_JOBS values. [chunk_seconds] records per-chunk busy time
   (total busy seconds = its sum); its values are timing-dependent. *)
let c_regions =
  Obs.Registry.counter "pool.regions" ~help:"parallel regions executed"

let c_single =
  Obs.Registry.counter "pool.single_chunk_regions"
    ~help:"regions whose range produced a single chunk (always run inline)"

let c_chunks =
  Obs.Registry.counter "pool.chunks" ~help:"chunks executed across all regions"

let g_width = Obs.Registry.gauge "pool.width" ~help:"domains in the global pool"

let h_chunk_seconds =
  Obs.Registry.histogram "pool.chunk_seconds"
    ~help:"per-chunk busy time, seconds (sum = total busy time)"

(* Per-region busy-time imbalance: (max chunk - mean chunk) / mean chunk,
   recorded for pooled regions with >= 2 chunks. 0 = perfectly even; a
   value near [chunks - 1] means one chunk carried the whole region (cores
   idle). Timing-dependent, like chunk_seconds — not width-invariant. *)
let h_imbalance =
  Obs.Registry.histogram "pool.region_imbalance"
    ~buckets:[| 0.01; 0.05; 0.1; 0.25; 0.5; 1.; 2.; 8. |]
    ~help:"per-region chunk busy-time imbalance, (max - mean) / mean"

(* time one chunk body only when recording, to avoid two clock reads per
   chunk on the fast path; [durations] additionally collects per-chunk
   busy times for the region-imbalance histogram *)
let timed_chunk ?durations body c =
  if Obs.Control.enabled () then begin
    let t0 = Obs.Control.now () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Obs.Control.now () -. t0 in
        Obs.Histogram.observe h_chunk_seconds dt;
        match durations with Some a -> a.(c) <- dt | None -> ())
      (fun () -> body c)
  end
  else body c

type job = {
  body : int -> unit; (* receives a chunk index in [0, count) *)
  count : int;
  next : int Atomic.t; (* next chunk to claim *)
  mutable unfinished : int; (* chunks not yet executed; under pool mutex *)
  mutable failure : (exn * Printexc.raw_backtrace) option; (* under mutex *)
}

(* on a worker domain, the id of the pool it serves: any region of that
   pool a body there enters is nested *)
let worker_of : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let next_id = Atomic.make 0

type t = {
  id : int; (* unique per pool, for [worker_of] *)
  jobs : int; (* requested width (the API-visible value) *)
  width : int; (* participating domains: 1 + spawned workers, <= cores *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int; (* bumped once per region, under mutex *)
  mutable current : job option; (* under mutex *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable active : (int * int) list;
      (* (domain, thread) ids inside a guarded region; under mutex *)
  mutable owned : bool; (* a region is running on the workers; under mutex *)
}

let jobs t = t.jobs

let drain t job =
  let continue_ = ref true in
  while !continue_ do
    let c = Atomic.fetch_and_add job.next 1 in
    if c >= job.count then continue_ := false
    else begin
      (match job.failure with
      | Some _ -> () (* region already failed: just retire the chunk *)
      | None -> (
          try job.body c
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            if job.failure = None then job.failure <- Some (e, bt);
            Mutex.unlock t.mutex));
      Mutex.lock t.mutex;
      job.unfinished <- job.unfinished - 1;
      if job.unfinished = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
  done

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.generation = last_gen do
    Condition.wait t.work_ready t.mutex
  done;
  let stop = t.stop in
  let gen = t.generation in
  let job = t.current in
  Mutex.unlock t.mutex;
  if not stop then begin
    (match job with Some j -> drain t j | None -> ());
    worker_loop t gen
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Kregret_parallel.Pool.create: jobs must be >= 1";
  let width = min jobs (max 1 (Domain.recommended_domain_count ())) in
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      jobs;
      width;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      current = None;
      stop = false;
      workers = [];
      active = [];
      owned = false;
    }
  in
  t.workers <-
    List.init (width - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_of t.id;
            worker_loop t 0));
  Obs.Gauge.set_int g_width width;
  t

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let nested () = invalid_arg "Kregret_parallel.Pool: nested parallel region"

(* Enter a guarded region on the calling thread: raise if it is nested
   (the thread is a worker or already inside a region of this pool), else
   register the thread and say whether it got the workers ([true]) or must
   run inline because another thread's region holds them ([false]). *)
let enter t ~want_workers =
  if Domain.DLS.get worker_of = t.id then nested ();
  let me = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  Mutex.lock t.mutex;
  if List.mem me t.active then begin
    Mutex.unlock t.mutex;
    nested ()
  end;
  t.active <- me :: t.active;
  let got = want_workers && not t.owned in
  if got then t.owned <- true;
  Mutex.unlock t.mutex;
  (me, got)

let leave t (me, got) =
  Mutex.lock t.mutex;
  t.active <- List.filter (fun id -> id <> me) t.active;
  if got then t.owned <- false;
  Mutex.unlock t.mutex

(* Execute [body c] for every chunk index c in [0, chunks) on the pool.
   The caller participates; returns when every chunk has executed. *)
let run_chunks t ~chunks body =
  if chunks > 0 then begin
    if t.stop then
      invalid_arg "Kregret_parallel.Pool: pool already shut down";
    Obs.Counter.incr c_regions;
    Obs.Counter.add c_chunks chunks;
    (* [chunks = 1] is a property of the range, not the width — counting the
       jobs=1 inline path here instead would break cross-width bit-identity *)
    if chunks = 1 then Obs.Counter.incr c_single;
    let durations =
      if Obs.Control.enabled () && chunks >= 2 then
        Some (Array.make chunks 0.)
      else None
    in
    let observe_imbalance () =
      match durations with
      | Some a ->
          let sum = Array.fold_left ( +. ) 0. a in
          let mx = Array.fold_left Float.max neg_infinity a in
          let mean = sum /. float_of_int chunks in
          if mean > 0. then
            Obs.Histogram.observe h_imbalance ((mx -. mean) /. mean)
      | None -> ()
    in
    (* inline: no pool machinery, exceptions propagate naturally *)
    let run_inline () =
      for c = 0 to chunks - 1 do
        timed_chunk ?durations body c
      done;
      observe_imbalance ()
    in
    let run_pooled () =
      let job =
        {
          body = timed_chunk ?durations body;
          count = chunks;
          next = Atomic.make 0;
          unfinished = chunks;
          failure = None;
        }
      in
      Mutex.lock t.mutex;
      t.current <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      drain t job;
      Mutex.lock t.mutex;
      while job.unfinished > 0 do
        Condition.wait t.work_done t.mutex
      done;
      Mutex.unlock t.mutex;
      (* completion happened-before this read (the mutex round above) *)
      observe_imbalance ();
      match job.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    in
    if t.jobs = 1 || chunks = 1 then run_inline ()
    else begin
      (* A multi-chunk region on a jobs > 1 pool takes the nesting guard
         even when width-capped to inline, so nested-region misuse fails
         on a single-core box exactly as it would on a multicore one. *)
      let ((_, pooled) as entry) = enter t ~want_workers:(t.width > 1) in
      Fun.protect
        ~finally:(fun () -> leave t entry)
        (fun () -> if pooled then run_pooled () else run_inline ())
    end
  end

(* ---- global pool --------------------------------------------------------- *)

let requested : int option ref = ref None

let set_jobs j =
  if j < 1 then invalid_arg "Kregret_parallel.Pool.set_jobs: jobs must be >= 1";
  requested := Some j

let env_jobs () =
  match Sys.getenv_opt "KREGRET_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ ->
          (* fall back to the default width, but say so: a silently ignored
             KREGRET_JOBS=abc used to look exactly like a working override *)
          Printf.eprintf
            "kregret: warning: ignoring invalid KREGRET_JOBS=%s (expected an \
             integer >= 1); using the default width\n\
             %!"
            (String.escaped s);
          None)

let get_jobs () =
  match !requested with
  | Some j -> j
  | None -> (
      match env_jobs () with
      | Some j -> j
      | None -> max 1 (Domain.recommended_domain_count ()))

let global : t option ref = ref None

let get () =
  let width = get_jobs () in
  match !global with
  | Some p when p.jobs = width && not p.stop -> p
  | prev ->
      (match prev with Some p -> shutdown p | None -> ());
      let p = create ~jobs:width in
      global := Some p;
      p

(* ---- chunked iteration ---------------------------------------------------- *)

(* Granularity model (see the header comment): all values are pure
   functions of (n, cost, chunk_size) — never of the pool width — so chunk
   boundaries, and with them every reduction order, stay bit-identical
   across KREGRET_JOBS values. Cost units are calibrated as ~nanoseconds
   of work per index. *)
let default_cost = 1_000.
let inline_cutoff = 50_000. (* below ~50 us of work: run inline, one chunk *)
let target_chunk_cost = 200_000. (* aim for >= ~200 us of work per chunk *)
let max_chunks = 64

let default_chunk_size ~n = max 1 ((n + max_chunks - 1) / max_chunks)

let chunk_plan ?chunk_size ?(cost = default_cost) ~n () =
  if n <= 0 then invalid_arg "Kregret_parallel.Pool.chunk_plan: n must be >= 1";
  match chunk_size with
  | Some c when c >= 1 -> c
  | Some _ -> invalid_arg "Kregret_parallel.Pool: chunk_size must be >= 1"
  | None ->
      let cost = if Float.is_finite cost && cost > 1. then cost else 1. in
      if float_of_int n *. cost < inline_cutoff then n
      else
        let by_cost = int_of_float (Float.ceil (target_chunk_cost /. cost)) in
        max (default_chunk_size ~n) (max 1 (min n by_cost))

let resolve = function Some p -> p | None -> get ()

let chunking ?chunk_size ?cost n =
  let cs = chunk_plan ?chunk_size ?cost ~n () in
  (cs, (n + cs - 1) / cs)

let parallel_for ?pool ?chunk_size ?cost ~lo ~hi body =
  let n = hi - lo in
  if n > 0 then begin
    let t = resolve pool in
    let cs, chunks = chunking ?chunk_size ?cost n in
    run_chunks t ~chunks (fun c ->
        let a = lo + (c * cs) in
        let b = min hi (a + cs) in
        for i = a to b - 1 do
          body i
        done)
  end

let map_reduce ?pool ?chunk_size ?cost ~lo ~hi ~map ~reduce init =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let t = resolve pool in
    let cs, chunks = chunking ?chunk_size ?cost n in
    let slots = Array.make chunks None in
    run_chunks t ~chunks (fun c ->
        let a = lo + (c * cs) in
        let b = min hi (a + cs) in
        slots.(c) <- Some (map a b));
    (* deterministic left-to-right fold over chunk results, on the caller *)
    Array.fold_left
      (fun acc slot ->
        match slot with Some v -> reduce acc v | None -> assert false)
      init slots
  end
