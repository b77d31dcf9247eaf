(** The offline approximate pipeline: ε-kernel reduction ({!Kernel}),
    then the exact skyline → happy → StoredList chain over the kernel
    rows only. The CLI, the bench driver and the serve tier's approx
    backend ({!Kregret_serve.Registry}) all run this composition, so
    their answers agree bit for bit — [Kregret_check.Approx_oracle] and
    the serve tests pin the equivalences. *)

type t = {
  reduction : Kernel.result;
  sky_ids : int array;  (** original ids of the kernel's skyline *)
  happy_ids : int array;  (** original ids of the kernel's happy set *)
  stored : Kregret.Stored_list.t option;
      (** over [happy_ids]'s vectors; [None] when the happy screen
          returned nothing (degenerate inputs) *)
  order : int array;
      (** the materialized GeoGreedy order as original row ids *)
}

(** [run ~eps points] — reduce, then skyline → happy → preprocess over
    the kernel. [?max_length] caps the StoredList materialization
    exactly as in {!Kregret.Stored_list.preprocess}. *)
val run :
  ?max_directions:int ->
  ?max_length:int ->
  eps:float ->
  Kregret_geom.Vector.t array ->
  t

(** [query t ~k] — first [min k (length)] original ids of the order,
    with the reported mrr of that prefix {e within the kernel}. *)
val query : t -> k:int -> int list * float

(** [mrr_at t ~k] — the stored (kernel-relative) mrr of the size-[k]
    prefix; [0.] when nothing is stored. *)
val mrr_at : t -> k:int -> float

val stored_length : t -> int

(** [certified_bound t ~k] — [min 1 (mrr_at t ~k + slack)]: a true upper
    bound on the selection's mrr over the {e full} input, by the net
    covering argument (see {!Kernel}). *)
val certified_bound : t -> k:int -> float
