(** Orthotope sets (Section III-A of the paper).

    For a point [p] in R^d_+, [Orth(p)] is the set of [2^d] corner points
    [{0, p.(0)} x ... x {0, p.(d-1)}]. The paper defines [Conv(S)] as the
    convex hull of the union of the orthotope sets of the points of [S]; that
    hull equals the downward closure [(conv S - R^d_+) ∩ R^d_+], which is the
    form the rest of this library computes with. This module provides the
    literal corner enumeration, used by tests to validate the downward-closure
    equivalence and by the 2-D reference hull. *)

module Vector = Kregret_geom.Vector

(** [corners p] enumerates [Orth(p)] — all [2^d] points obtained by zeroing
    subsets of coordinates of [p]. Order: corner [m] (for mask [m] in
    [0 .. 2^d-1]) keeps coordinate [i] iff bit [i] of [m] is set; corner 0 is
    the origin and corner [2^d - 1] is [p] itself. Raises [Invalid_argument]
    for d > 20. *)
val corners : Vector.t -> Vector.t array

(** [corner_count d] is [2^d], the size of an orthotope set. *)
val corner_count : int -> int

(** [of_set ps] is [D_orth(ps)]: the concatenation of [corners p] for each
    [p], with exact duplicates (notably the shared origin) removed. *)
val of_set : Vector.t list -> Vector.t list

(** [member ~eps hull_points x] tests whether [x] lies in the downward closure
    of the given points: [x >= 0] and no coordinate-wise "excess" — i.e.
    there is a convex combination of [hull_points] dominating [x]. Only used
    for small test instances; implemented by LP-free Fourier–Motzkin-style
    check in 2-D and rejected otherwise. *)
val member2d : eps:float -> Vector.t list -> Vector.t -> bool
