(* Clocks, /proc readings, order statistics and bench-side spans. *)

(* CLOCK_MONOTONIC in seconds, read at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ---------------------------------------------------- *)

(* [quantile sorted q] interpolates linearly between the closest ranks
   (Python's [statistics.quantiles(..., method="inclusive")]). [sorted] is
   ascending and non-empty; +infinity entries (failed operations, which
   count as slower than any success) propagate. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor h) in
  let frac = h -. float_of_int i in
  if i >= n - 1 || frac = 0. then sorted.(i)
  else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize a =
  let s = sorted a in
  {
    median = quantile s 0.5;
    q1 = quantile s 0.25;
    q3 = quantile s 0.75;
    n = Array.length s;
  }

let median a = (summarize a).median

(* growable float buffer: per-operation latencies of a timed phase *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 4096 0.; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let sub b i j = Array.sub b.data i (j - i)
  let to_array b = sub b 0 b.len
end

(* ---- /proc --------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_int s =
  match String.split_on_char ' ' (String.trim s) with
  | x :: _ -> int_of_string_opt x
  | [] -> None

(* CPU time of every thread of [pid] (user + sys), in ns: the first field of
   each /proc/PID/task/TID/schedstat. Tick-based counters (utime/stime)
   quantize to 10 ms, which swamps a per-operation figure. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match read_file (Filename.concat (Filename.concat dir tid) "schedstat") with
          | exception Sys_error _ -> acc
          | s -> acc + Option.value (first_int s) ~default:0)
        0 tids

(* peak resident set size (VmHWM) of [pid], MiB *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> Float.nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match first_int v with
              | Some kb -> float_of_int kb /. 1024.
              | None -> acc)
          | _ -> acc)
        Float.nan
        (String.split_on_char '\n' s)

(* machine-wide steal time so far, seconds (/proc/stat, USER_HZ = 100):
   time the hypervisor gave this box's vCPUs to someone else *)
let steal_s () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> 0.
  | s -> (
      match String.split_on_char '\n' s with
      | first :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' first) with
          | "cpu" :: fields when List.length fields >= 8 ->
              float_of_string (List.nth fields 7) /. 100.
          | _ -> 0.)
      | [] -> 0.)

let loadavg1 () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> 0.
  | s -> (
      match String.split_on_char ' ' s with
      | x :: _ -> Option.value (float_of_string_opt x) ~default:0.
      | [] -> 0.)

(* ---- bench-side spans ------------------------------------------------------ *)

(* Spans recorded from the benchmark's own code, around each client call and
   each in-process layer call. Off unless [--trace 1]; kept in memory and
   written out when the run ends. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let enabled = ref false
  let lock = Mutex.create ()
  let spans : span list ref = ref []
  let next_id = Atomic.make 1
  let current = Domain.DLS.new_key (fun () -> 0)

  let with_ name f =
    if not !enabled then f ()
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = Domain.DLS.get current in
      Domain.DLS.set current id;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now () in
          Domain.DLS.set current parent;
          Mutex.lock lock;
          spans := { id; parent; name; t0; t1 } :: !spans;
          Mutex.unlock lock)
        f
    end

  (* per-name (count, total seconds, self seconds): self time is a span's
     duration minus the part its children cover *)
  let aggregate () =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace child s.parent
            (Option.value (Hashtbl.find_opt child s.parent) ~default:0.
            +. (s.t1 -. s.t0)))
      !spans;
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        let self = d -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
        let c, t, st =
          Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.)
        in
        Hashtbl.replace by_name s.name (c + 1, t +. d, st +. self))
      !spans;
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
    |> List.sort compare

  (* the newest [limit] raw spans, oldest first *)
  let recent limit =
    List.filteri (fun i _ -> i < limit) !spans |> List.rev
end
