(** Cumulative-style histograms with per-domain cells (the same scheme
    as {!Counter}). Bucket counts are integers and merge exactly; the
    floating-point [sum] is merged in cell-registration order, so unlike
    counters it is {e not} covered by the cross-width bit-identity contract
    (the observations themselves usually are not either — histograms here
    record durations). *)

type t

type snapshot = {
  count : int;  (** total observations *)
  sum : float;  (** sum of observed values *)
  buckets : (float * int) list;
      (** [(le, n)] pairs: [n] observations with value [<= le], plus a final
          [(infinity, n)] overflow bucket. Non-cumulative counts. *)
}

val default_buckets : float array
(** Exponential seconds-oriented ladder: 1e-6 .. 10. *)

val make : ?buckets:float array -> name:string -> help:string -> unit -> t
(** [buckets] must be strictly increasing. An implicit [+inf] overflow
    bucket is appended. *)

val name : t -> string
val help : t -> string

val observe : t -> float -> unit
(** Record one observation into the calling domain's cell. No-op while
    {!Control.enabled} is false. *)

val snapshot : t -> snapshot
val touched : t -> bool
val reset : t -> unit
