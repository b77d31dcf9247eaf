module Vector = Kregret_geom.Vector
module Matrix = Kregret_geom.Matrix

type t = { normal : Vector.t; offset : float }
type side = Below | On | Above

let make normal offset =
  if Vector.norm normal = 0. then invalid_arg "Hyperplane.make: zero normal";
  { normal; offset }

let through ~normal p = make normal (Vector.dot normal p)

let normalized h =
  let n = Vector.norm h.normal in
  { normal = Vector.scale (1. /. n) h.normal; offset = h.offset /. n }

let eval h p = Vector.dot h.normal p -. h.offset

let side ~eps h p =
  let v = eval h p in
  if v < -.eps then Below else if v > eps then Above else On

let ray_intersection h dir =
  let denom = Vector.dot h.normal dir in
  if abs_float denom < 1e-300 then None
  else
    let t = h.offset /. denom in
    if t < 0. then None else Some t

(* Find a nonzero null vector of the (d-1) x d matrix whose rows are
   [p_i - p_0]: fix one coordinate of the normal to 1 and solve for the rest,
   trying each coordinate in turn until the reduced system is regular. *)
let through_points = function
  | [] -> None
  | p0 :: rest ->
      let d = Vector.dim p0 in
      if List.length rest <> d - 1 then
        invalid_arg "Hyperplane.through_points: expected d points in R^d";
      let diffs = Array.of_list (List.map (fun p -> Vector.sub p p0) rest) in
      let try_fix j =
        (* solve diffs . n = 0 with n_j = 1 *)
        let a =
          Matrix.init (d - 1) (d - 1) (fun i c ->
              let c' = if c < j then c else c + 1 in
              diffs.(i).(c'))
        in
        let b = Array.init (d - 1) (fun i -> -.diffs.(i).(j)) in
        match Matrix.solve a b with
        | None -> None
        | Some x ->
            let n =
              Array.init d (fun c ->
                  if c = j then 1. else if c < j then x.(c) else x.(c - 1))
            in
            Some n
      in
      let rec go j = if j >= d then None else
        match try_fix j with Some n -> Some n | None -> go (j + 1)
      in
      (match go 0 with
      | None -> None
      | Some n ->
          let n = Vector.normalize n in
          let c = Vector.dot n p0 in
          let n, c = if c < 0. then (Vector.scale (-1.) n, -.c) else (n, c) in
          Some { normal = n; offset = c })

let pp ppf h = Format.fprintf ppf "%a . x = %.6f" Vector.pp h.normal h.offset
