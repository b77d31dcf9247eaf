(* The server under test as a child process, and the client calls the
   workloads make against it. *)

module Serve = Kregret_serve
module Json = Serve.Json
module Client = Serve.Client

(* Pinned server flags. [build] and [hit] run one pool domain: on a 2-vCPU
   box shared with other tenants, a width-2 pool makes every parallel region
   wait for the more stolen vCPU (probes: 5-15 s of steal in some 30 s build
   runs at width 2, 0.3-1.6 s in every run at width 1), and the load
   generator needs a core of its own. [mixed] runs two, the width at which concurrent parallel regions
   exist at all. The cache holds every warmed key of a materialized list
   ([2 * max_k]). The list cap keeps d=6 builds steady: past ~32 rounds
   GeoGreedy's cost there swings 2.5x between seeds of one distribution. *)
let jobs ~workload = if workload = "mixed" then 2 else 1
let workers = 4
let cache_size = 128
let max_k = 32

let flags ~jobs =
  [
    "--jobs"; string_of_int jobs; "--workers"; string_of_int workers;
    "--cache-size"; string_of_int cache_size; "--max-k"; string_of_int max_k;
  ]

(* readiness polls go out at this fixed interval — not the client library's
   20 ms or the server's 50 ms retry hint, which would quantize build
   latencies *)
let poll_interval = 0.002

type server = { pid : int; sock : string; mutable alive : bool }

let live : server list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap srv.pid
  end

(* no child outlives the benchmark, whatever path it exits by *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~exe ~work ~jobs ~metrics =
  let sock = Filename.concat work "serve.sock" in
  let args =
    [ exe; "--listen"; "unix:" ^ sock; "--quiet" ]
    @ flags ~jobs
    @ match metrics with Some p -> [ "--metrics"; p ] | None -> []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat work "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid = Unix.create_process exe (Array.of_list args) null null log in
  Unix.close null;
  Unix.close log;
  let srv = { pid; sock; alive = true } in
  live := srv :: !live;
  srv

let exited srv =
  match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
  | 0, _ -> false
  | _ ->
      srv.alive <- false;
      true
  | exception Unix.Unix_error _ -> false

(* connect as soon as the listener is up, polling every millisecond *)
let connect srv =
  let t0 = Measure.now () in
  let rec go () =
    match Client.connect_to ~timeout:150. (Serve.Endpoint.Unix_path srv.sock) with
    | Ok c -> c
    | Error m ->
        if exited srv then failwith "server exited during start-up"
        else if Measure.now () -. t0 > 20. then failwith ("connect: " ^ m)
        else begin
          Unix.sleepf 0.001;
          go ()
        end
  in
  go ()

(* ask for a clean shutdown (so a [--metrics] export gets written), and kill
   the process if it has not exited within 20 s *)
let stop srv =
  if srv.alive then begin
    (match Client.connect_to ~timeout:10. (Serve.Endpoint.Unix_path srv.sock) with
    | Ok c ->
        ignore (Client.request_raw c {|{"op":"shutdown"}|});
        Client.close c
    | Error _ -> ());
    let t0 = Measure.now () in
    while srv.alive && not (exited srv) do
      if Measure.now () -. t0 > 20. then kill srv else Unix.sleepf 0.005
    done
  end;
  live := List.filter (fun s -> s != srv) !live

(* ---- requests ------------------------------------------------------------ *)

let frame fields = Json.to_string (Json.Obj fields)

let op_frame ?name ?k op =
  frame
    ([ ("op", Json.Str op) ]
    @ (match name with Some n -> [ ("name", Json.Str n) ] | None -> [])
    @ match k with Some k -> [ ("k", Json.int k) ] | None -> [])

let load_frame ?approx ~name path =
  frame
    ([ ("op", Json.Str "load"); ("name", Json.Str name); ("path", Json.Str path) ]
    @ match approx with Some e -> [ ("approx", Json.Num e) ] | None -> [])

let list_frame = op_frame "list"
let stats_frame = op_frame "stats"

let error_code j =
  Option.value ~default:"unknown"
    (Option.bind (Json.member "error" j) (fun e ->
         Option.bind (Json.member "code" e) Json.to_str))

(* One request. [Error code] carries the wire error code of a structured
   failure, or ["transport"] when no parsable reply arrived. *)
let call c frame =
  match Client.request_raw c frame with
  | Error _ -> Error "transport"
  | Ok raw -> (
      match Json.parse raw with
      | Error _ -> Error "transport"
      | Ok j -> (
          match Json.member "ok" j with
          | Some (Json.Bool true) -> Ok (j, raw)
          | _ -> Error (error_code j)))

let get_exn f what j =
  match Option.bind (Json.member what j) f with
  | Some v -> v
  | None -> failwith (Printf.sprintf "reply has no %s field" what)

let int_field = get_exn Json.to_int
let float_field = get_exn Json.to_float
let str_field = get_exn Json.to_str

let selection j =
  List.map
    (fun v -> Option.get (Json.to_int v))
    (get_exn Json.to_list "selection" j)

let entry j name =
  List.find_opt
    (fun e -> Option.bind (Json.member "name" e) Json.to_str = Some name)
    (get_exn Json.to_list "datasets" j)

(* Poll [list] at the fixed interval until [name] is no longer building.
   A failed build is not an error here: the query that follows gets the
   server's [build_failed] reply, which the server counts. *)
let wait_built c name =
  let rec go () =
    match call c list_frame with
    | Error code -> Error code
    | Ok (j, _) -> (
        match entry j name with
        | None -> Error "bench_missing"
        | Some e when str_field "status" e = "building" ->
            Unix.sleepf poll_interval;
            go ()
        | Some e -> Ok e)
  in
  go ()

(* server-wide counters from [stats] *)
type counters = {
  errors : int;
  hits : int;
  misses : int;
  leaders : int;
  followers : int;
}

let counters c =
  match call c stats_frame with
  | Error code -> failwith ("stats: " ^ code)
  | Ok (j, _) ->
      let cache = Option.get (Json.member "cache" j)
      and batch = Option.get (Json.member "batch" j) in
      {
        errors = int_field "errors" j;
        hits = int_field "hits" cache;
        misses = int_field "misses" cache;
        leaders = int_field "leaders" batch;
        followers = int_field "followers" batch;
      }

let diff a b =
  {
    errors = b.errors - a.errors;
    hits = b.hits - a.hits;
    misses = b.misses - a.misses;
    leaders = b.leaders - a.leaders;
    followers = b.followers - a.followers;
  }
