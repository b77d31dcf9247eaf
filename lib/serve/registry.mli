(** Dataset registry: load CSV datasets once, precompute skyline → happy
    points → StoredList in the background (materialized as a
    {!Kregret.Dynamic} state), serve any [k] afterwards as an O(k) prefix
    read — and accept incremental [insert]/[delete]/[flush] updates that
    repair the precomputation instead of rebuilding it.

    [load] is cheap and non-blocking: it reads the file {e once},
    fingerprints exactly the bytes it parsed ({!Fingerprint.of_string} —
    hashing and re-reading separately raced concurrent rewrites), parses
    and normalizes the CSV on the calling thread, registers the entry as
    [Building] and hands the expensive GeoGreedy materialization to a
    single background worker thread (which uses the global
    {!Kregret_parallel.Pool} internally — builds are serialized so parallel
    regions never nest). Concurrent [load]s of the same unchanged file are
    idempotent: they join the in-flight build instead of enqueuing a
    duplicate. Re-[load]ing a name whose build [Failed] on unchanged bytes
    re-enqueues the build (failures can be transient), counted as
    [serve.registry.build_retries]. Queries against a still-[Building]
    entry get a [retry_after] answer from the server, never a blocked
    accept loop.

    {b Updates.} {!update} enqueues an insert/delete/flush on the {e same}
    worker queue as builds, so updates serialize against builds and against
    each other, and blocks the calling connection thread until the worker
    has applied the op and republished a consistent {!built} snapshot.
    Queries never wait on an in-flight update — they read the last
    published snapshot under the registry mutex. Each applied update bumps
    the snapshot's [Dynamic] epoch when the answer could have changed,
    which servers fold into their cache key so stale cached answers simply
    age out.

    {b Staleness.} Every entry remembers the byte fingerprint of the file
    it was built from. {!fresh} re-hashes the file and must be consulted
    before serving: a dataset whose CSV was rewritten on disk between
    [load] and [query] is {e rejected} ([stale_dataset]) instead of being
    silently answered from the stale materialization. Once a dataset has
    been mutated through {!update}, the CSV is a seed rather than the
    source of truth, and {!fresh} always passes. Re-[load]ing the same
    name picks up the new file contents and rebuilds (dropping any
    updates). *)

(** The immutable answer state behind a [Ready] dataset. [Exact] is the
    incremental path: a {!Kregret.Dynamic.Snapshot} republished after every
    applied update. [Approx] is the static ε-kernel tier: the offline
    {!Kregret_approx.Pipeline} over the loaded rows (kept in [points] as
    the rank-regret universe) — answers bit-identical to
    {!Kregret_approx.Pipeline.run}, no updates. *)
type backend =
  | Exact of Kregret.Dynamic.Snapshot.t
  | Approx of {
      pipeline : Kregret_approx.Pipeline.t;
      points : Kregret_geom.Vector.t array;
    }

type built = {
  backend : backend;
      (** immutable answer state: query/mrr by prefix, live count, epoch *)
  n_sky : int;  (** skyline size, for [list] *)
  n_happy : int;  (** happy-point count, for [list] *)
  build_seconds : float;  (** initial build cost (not update repair time) *)
}

(** Uniform reads over the two backends. Epoch of an [Approx] backend is
    always 0 — approx datasets never change, so nothing a cache keyed on
    it could miss. *)

val backend_query : backend -> k:int -> int list * float
val backend_mrr_at : backend -> k:int -> float

(** [backend_rank_regret b ~k] — the rank-regret representative answer of
    the published backend: exact backends run {!Kregret_rrr.Rrr} over the
    snapshot's live basis (answers track updates epoch for epoch; a fresh
    unmutated dataset reproduces the offline engine bit for bit); approx
    backends run it with the kernel's skyline
    ([pipeline.sky_ids]) as candidates over the full loaded rows. Raises
    [Invalid_argument] when no live points remain. *)
val backend_rank_regret :
  backend -> k:int -> int list * Kregret_rrr.Rrr.rank
val backend_epoch : backend -> int
val backend_live : backend -> int
val backend_stored_length : backend -> int

type status = Building | Ready of built | Failed of string

type info = {
  name : string;
  path : string;
  fingerprint : string;
  stat : Fingerprint.stat_sig;
      (** taken by [fstat] on the descriptor the fingerprinted bytes were
          read from — the cheap per-query freshness witness *)
  n : int;  (** rows loaded from the CSV (not updated by inserts/deletes) *)
  d : int;
  approx : float;
      (** ε of the ε-kernel tier; [0.] = exact. Approximate datasets are
          static. *)
  mutated : bool;  (** diverged from the CSV via {!update} *)
  status : status;
}

type update_op = [ `Insert of Kregret_geom.Vector.t | `Delete of int | `Flush ]

type update_outcome = {
  applied : bool;
      (** [false] for exact no-ops: deleting an unknown/tombstoned id, or a
          flush with nothing to reclaim *)
  inserted_id : int option;  (** the new point's stable id, inserts only *)
  reclaimed : int;  (** slots compacted away, flushes only *)
  epoch : int;  (** answer version after the op *)
  live : int;  (** live points after the op *)
}

(** [Error (code, message)] uses the wire error codes: [not_found],
    [building], [build_failed], [static_dataset], [bad_point],
    [internal]. *)
type update_reply = (update_outcome, string * string) result

type t

(** [create ?max_length ()] starts the build/update worker. [max_length]
    caps the StoredList materialization (the [--max-k] serving knob — see
    {!Kregret.Stored_list.preprocess}); queries beyond the cap return the
    whole materialized list. *)
val create : ?max_length:int -> unit -> t

(** [shutdown t] stops and joins the worker (waits for an in-flight build
    or update; pending queued updates are answered with an [internal]
    error, never left hanging). Idempotent. *)
val shutdown : t -> unit

(** [load t ~name ~path] registers (or re-registers, when the
    fingerprint or ε changed) a dataset and enqueues its build; returns a
    snapshot. [approx > 0.] builds the static ε-kernel tier
    ({!Kregret_approx.Pipeline}) instead of a [Dynamic]; exact and
    approximate materializations of the same bytes are {e distinct}
    entries. ε is part of the entry's identity: re-loading an unchanged
    file at the same [approx] joins the existing entry (except when its
    build [Failed], which retries); a different ε rebuilds. [Error] on
    unreadable or malformed CSV. *)
val load :
  ?approx:float ->
  t ->
  name:string ->
  path:string ->
  (info, string) result

(** [update t ~name op] — blocking insert/delete/flush against a [Ready]
    exact dataset. Points must be pre-normalized (finite, in [(0, 1]],
    matching dimension): anything else is [Error ("bad_point", _)].
    Approximate datasets answer [Error ("static_dataset", _)]. *)
val update : t -> name:string -> update_op -> update_reply

val find : t -> string -> info option

(** Name-sorted snapshots. *)
val list : t -> info list

(** [evict t name] — forget a dataset, returning the evicted entry's
    fingerprint ([None] when absent). Removal and fingerprint read happen
    under one critical section, so a cache purge keyed on the result
    targets exactly the entry that was removed — reading the fingerprint
    with a separate {!find} first raced a concurrent re-load of the same
    name. *)
val evict : t -> string -> string option

(** [fresh t info] — fail when [info.path] no longer holds the loaded
    bytes (counted as [serve.stale_rejections]). The common case is O(1):
    a [stat] matching [info.stat] proves the file untouched; only a
    changed signature pays for a full re-read and re-hash (so a [touch]
    without a rewrite stays fresh, and per-query latency does not scale
    with the file). Always [Ok] once [info.mutated]. *)
val fresh : t -> info -> (unit, string) result
