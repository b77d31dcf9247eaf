(** Last-write-wins float gauges for point-in-time values (pool width,
    candidate-set sizes, polytope bound). Set them from the orchestrating
    domain only — unlike {!Counter} there are no per-domain cells, so a
    gauge written from inside a parallel region would race. *)

type t

val make : name:string -> help:string -> t
val name : t -> string
val help : t -> string

val set : t -> float -> unit
(** Record a value. No-op while {!Control.enabled} is false. *)

val set_int : t -> int -> unit

val value : t -> float
(** The last recorded value (0. if never set). *)

val touched : t -> bool
val reset : t -> unit
