(** Hyperplanes in R^d, in the paper's convention.

    A hyperplane is the solution set of [normal . x = offset]. Throughout the
    k-regret machinery, [normal] is non-negative (it is a face normal of a
    downward-closed hull or a utility weight vector) and [offset > 0] for the
    faces "not passing through the origin" the paper restricts attention to.
    The [side] tests mirror the paper's "above / on / below" vocabulary
    (Section III-B). *)

module Vector = Kregret_geom.Vector

type t = { normal : Vector.t; offset : float }

type side =
  | Below  (** [normal . p < offset - eps] *)
  | On  (** within [eps] of the hyperplane *)
  | Above  (** [normal . p > offset + eps] *)

(** [make normal offset] builds a hyperplane. Raises [Invalid_argument] on a
    zero normal. *)
val make : Vector.t -> float -> t

(** [through ~normal p] is the hyperplane with normal [normal] passing through
    point [p] (offset [normal . p]). *)
val through : normal:Vector.t -> Vector.t -> t

(** [normalized h] rescales so that [||normal|| = 1], preserving the set. *)
val normalized : t -> t

(** [eval h p] is [normal . p - offset]: negative below, positive above. *)
val eval : t -> Vector.t -> float

(** [side ~eps h p] classifies point [p] against [h]. *)
val side : eps:float -> t -> Vector.t -> side

(** [ray_intersection h dir] is [Some t] when the ray [{ s * dir : s >= 0 }]
    from the origin meets [h] at parameter [t >= 0], i.e.
    [t = offset / (normal . dir)]; [None] when the ray is parallel to or
    points away from [h]. This is the primitive behind the paper's critical
    points (Definition 3). *)
val ray_intersection : t -> Vector.t -> float option

(** [through_points ps] fits a hyperplane through [d] affinely independent
    points in R^d with unit normal, or returns [None] when the points are
    affinely dependent. The normal's sign is chosen so the origin is not
    above the plane (matching face orientations of hulls that contain the
    origin). *)
val through_points : Vector.t list -> t option

(** [pp] prints [normal . x = offset]. *)
val pp : Format.formatter -> t -> unit
