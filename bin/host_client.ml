(** Standalone networked-host tooling (DESIGN.md §12): one binary,
    three subcommands, so the server and its clients can live in
    different processes — the deployment shape the in-process harness
    in [host_bench --net] only simulates.

    {v
    host_client serve --socket /tmp/live.sock --rows 8 &
    host_client load  --socket /tmp/live.sock --sessions 100 --rounds 50
    host_client stats --socket /tmp/live.sock
    v}

    [serve] binds a Unix-domain socket over a fresh synthetic-app
    fleet and steps the select loop until SIGINT/SIGTERM.  [load]
    drives the seeded lockstep {!Live_net.Client} against whatever is
    listening (any process) and prints the end-to-end latency report;
    exit 0 iff the run completed without protocol errors.  [stats]
    sends a single [Stats] frame and prints the host's metrics dump. *)

module Wire = Live_net.Wire
module Conn = Live_net.Conn
module Scenario = Live_net.Scenario
module Prng = Live_core.Prng

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let usage () =
  prerr_endline
    {|usage: host_client <serve|load|stats|director|rebalance> --socket PATH [options]
  serve --socket PATH [--width W] [--rows N] [--cache]
        [--evaluator subst|compiled] [--queue-capacity Q]
        [--queue-policy drop-oldest|reject] [--batch B]
      run a networked host until SIGINT/SIGTERM
  load --socket PATH [--sessions K] [--conns C] [--rounds R]
       [--seed N] [--window W] [--detach-every K] [--width W] [--rows N]
       [--update-every R] [--rebalance-every R] [--count K] [--verify]
      drive seeded load against a running host; --window W pipelines up
      to W rounds of each session's events before waiting for delta
      credits (default 1 = lockstep), --update-every broadcasts a fresh
      program version every R rounds, --rebalance-every asks a director
      to migrate --count sessions every R rounds (both land at full
      barriers whatever the window), and --verify replays the trace
      in-process afterwards and checks every session and every client
      frame against it, slot by slot
  stats --socket PATH
      print the host's metrics dump (aggregated across shards when the
      socket is a director)
  director --socket PATH --shards P1,P2,... [--connect-timeout S]
      front N running shard hosts behind one socket until SIGINT/SIGTERM
  rebalance --socket PATH [--count K]
      ask a running director to migrate K sessions between shards|};
  exit 2

(* ---- shared flags ------------------------------------------------ *)

let socket = ref ""
let width = ref 32
let rows = ref 8
let cache = ref false
let evaluator = ref Live_core.Machine.Compiled
let queue_capacity = ref 64
let queue_policy = ref Live_host.Backpressure.Drop_oldest
let batch = ref 8
let sessions = ref 100
let conns = ref 0
let rounds = ref 50
let seed = ref 42
let detach_every = ref 0
let shards_csv = ref ""
let connect_timeout = ref 10.
let count = ref 1
let update_every = ref 0
let rebalance_every = ref 0
let verify = ref false
let window = ref 1

let int_arg name v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> die "host_client: %s expects an integer, got %S" name v

let float_arg name v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> die "host_client: %s expects a number, got %S" name v

let rec parse = function
  | [] -> ()
  | "--socket" :: v :: rest -> socket := v; parse rest
  | "--width" :: v :: rest -> width := int_arg "--width" v; parse rest
  | "--rows" :: v :: rest -> rows := int_arg "--rows" v; parse rest
  | "--cache" :: rest -> cache := true; parse rest
  | "--evaluator" :: v :: rest ->
      (match v with
      | "subst" -> evaluator := Live_core.Machine.Subst
      | "compiled" -> evaluator := Live_core.Machine.Compiled
      | _ -> die "host_client: unknown evaluator %S" v);
      parse rest
  | "--queue-capacity" :: v :: rest ->
      queue_capacity := int_arg "--queue-capacity" v;
      parse rest
  | "--queue-policy" :: v :: rest ->
      (match v with
      | "drop-oldest" -> queue_policy := Live_host.Backpressure.Drop_oldest
      | "reject" -> queue_policy := Live_host.Backpressure.Reject
      | _ -> die "host_client: unknown queue policy %S" v);
      parse rest
  | "--batch" :: v :: rest -> batch := int_arg "--batch" v; parse rest
  | "--sessions" :: v :: rest -> sessions := int_arg "--sessions" v; parse rest
  | "--conns" :: v :: rest -> conns := int_arg "--conns" v; parse rest
  | "--rounds" :: v :: rest -> rounds := int_arg "--rounds" v; parse rest
  | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
  | "--detach-every" :: v :: rest ->
      detach_every := int_arg "--detach-every" v;
      parse rest
  | "--shards" :: v :: rest -> shards_csv := v; parse rest
  | "--connect-timeout" :: v :: rest ->
      connect_timeout := float_arg "--connect-timeout" v;
      parse rest
  | "--count" :: v :: rest -> count := int_arg "--count" v; parse rest
  | "--update-every" :: v :: rest ->
      update_every := int_arg "--update-every" v;
      parse rest
  | "--rebalance-every" :: v :: rest ->
      rebalance_every := int_arg "--rebalance-every" v;
      parse rest
  | "--verify" :: rest -> verify := true; parse rest
  | "--window" :: v :: rest -> window := int_arg "--window" v; parse rest
  | a :: _ -> die "host_client: unknown argument %S" a

let require_socket () = if !socket = "" then die "host_client: --socket is required"

(* ---- serve ------------------------------------------------------- *)

let serve () =
  require_socket ();
  let program =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~rows:!rows ~version:0 ()))
      .Live_surface.Compile.core
  in
  let config =
    {
      Live_host.Registry.default_config with
      Live_host.Registry.width = !width;
      cache = !cache;
      queue_capacity = !queue_capacity;
      queue_policy = !queue_policy;
      evaluator = !evaluator;
    }
  in
  let srv = Live_net.Server.create ~config ~batch:!batch ~socket:!socket program in
  let stopping = ref false in
  let quit _ = stopping := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Printf.printf "host_client: serving on %s (rows %d, width %d, %s)\n%!"
    !socket !rows !width
    (match !evaluator with
    | Live_core.Machine.Subst -> "subst"
    | Live_core.Machine.Compiled -> "compiled");
  Live_net.Server.run ~until:(fun () -> !stopping) srv;
  let s = Live_net.Server.stats srv in
  Live_net.Server.stop srv;
  Printf.printf
    "host_client: served %d connections, %d frames in / %d out, %d \
     detaches, %d resumes\n%!"
    s.Live_net.Server.accepted s.Live_net.Server.frames_in
    s.Live_net.Server.frames_out s.Live_net.Server.detaches
    s.Live_net.Server.resumes;
  exit 0

(* ---- an admin connection ---------------------------------------- *)

(* Blocking request/reply over a side connection that owns no sessions,
   so the only frames it ever sees are replies to its own requests.
   Works identically against a [serve] host and a [director]. *)

let admin_connect path =
  try Conn.connect path
  with Unix.Unix_error (e, _, _) ->
    die "host_client: cannot connect to %s: %s" path (Unix.error_message e)

let admin_rpc a (f : Wire.client_frame) : Wire.host_frame =
  try Conn.rpc a (Wire.Client f) (fun () -> Conn.next a)
  with Conn.Failed m -> die "host_client: %s" m

let admin_close a =
  Conn.send a (Wire.Client Wire.Bye);
  (try Conn.push a with Conn.Failed _ -> ());
  Conn.close a

(* ---- load -------------------------------------------------------- *)

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows:!rows ~version ()))
    .Live_surface.Compile.core

let load () =
  require_socket ();
  if !conns = 0 then conns := min !sessions 16;
  if !conns > !sessions then conns := !sessions;
  if !window < 1 then die "host_client: --window must be >= 1";
  (* every k-th round, counted from 1 *)
  let every k =
    if k <= 0 then []
    else List.filter (fun r -> (r + 1) mod k = 0) (List.init !rounds Fun.id)
  in
  let spec =
    {
      Scenario.config =
        {
          Live_host.Registry.default_config with
          Live_host.Registry.width = !width;
        };
      batch = !batch;
      program = app;
      sessions = !sessions;
      conns = !conns;
      rounds = !rounds;
      window = !window;
      seed = !seed;
      draw =
        (fun rng ->
          if Prng.int rng 10 = 0 then Live_host.Registry.Back
          else
            Live_host.Registry.Tap
              { x = Prng.int rng !width; y = Prng.int rng (!rows + 3) });
      updates = every !update_every;
      rebalances = every !rebalance_every;
      moves = !count;
      detach_every = !detach_every;
    }
  in
  let fleet =
    try Scenario.start (Scenario.External !socket) (app 0)
    with Unix.Unix_error (e, _, _) ->
      die "host_client: cannot connect to %s: %s" !socket (Unix.error_message e)
  in
  let ok =
    match Scenario.run fleet spec with
    | Error m ->
        prerr_endline ("host_client: load failed: " ^ m);
        false
    | Ok o -> (
        Printf.printf "load: %d sessions x %d rounds over %d connections%s\n"
          !sessions !rounds !conns
          (if !window > 1 then Printf.sprintf " (window %d)" !window else "");
        List.iter (Printf.printf "load: %s\n") (Scenario.summary o);
        print_string (Live_host.Host_metrics.to_string o.metrics);
        if not !verify then true
        else
          let v = Scenario.check fleet ~shadow:(Scenario.shadow spec) o in
          match v.problems with
          | [] ->
              Printf.printf "verify: fleet digest %s matches shadow replay\n"
                v.digest;
              true
          | ps ->
              print_endline "verify: FLEET MISMATCH against the shadow replay";
              List.iter (Printf.printf "verify:   %s\n") ps;
              false)
  in
  Scenario.stop fleet;
  exit (if ok then 0 else 1)

(* ---- stats ------------------------------------------------------- *)

let stats () =
  require_socket ();
  let a = admin_connect !socket in
  (match admin_rpc a Wire.Stats with
  | Wire.Metrics { text } -> print_string text
  | Wire.Error { code; msg } -> die "host_client: host error %d: %s" code msg
  | _ -> die "host_client: unexpected reply to Stats");
  admin_close a;
  exit 0

(* ---- director ---------------------------------------------------- *)

let director () =
  require_socket ();
  let shards =
    String.split_on_char ',' !shards_csv
    |> List.filter (fun s -> s <> "")
  in
  if shards = [] then die "host_client: --shards P1,P2,... is required";
  let dir =
    try
      Live_net.Director.create ~connect_timeout:!connect_timeout
        ~socket:!socket ~shards ()
    with Unix.Unix_error (e, _, p) ->
      die "host_client: cannot reach shard %s: %s" p (Unix.error_message e)
  in
  let stopping = ref false in
  let quit _ = stopping := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Printf.printf "host_client: directing %d shards on %s\n%!"
    (List.length shards) !socket;
  (try Live_net.Director.run ~until:(fun () -> !stopping) dir
   with Live_net.Director.Fatal m ->
     prerr_endline ("host_client: director: fatal: " ^ m));
  let s = Live_net.Director.stats dir in
  Live_net.Director.stop dir;
  Printf.printf
    "host_client: %d sessions over %d shards, %d clients, %d frames in / %d \
     out\n"
    s.Live_net.Director.sessions s.Live_net.Director.shards
    s.Live_net.Director.accepted s.Live_net.Director.frames_in
    s.Live_net.Director.frames_out;
  List.iter
    (fun (ep, n) -> Printf.printf "host_client:   %-40s %d sessions\n" ep n)
    s.Live_net.Director.per_shard;
  Printf.printf
    "host_client: updates %d committed / %d rejected, rebalances %d (%d \
     moved), digest checks %d (%d failed)\n"
    s.Live_net.Director.updates_committed s.Live_net.Director.updates_rejected
    s.Live_net.Director.rebalances s.Live_net.Director.sessions_moved
    s.Live_net.Director.digest_checks s.Live_net.Director.digest_failures;
  Printf.printf "host_client: 2PC %d txns, p50 %.2f ms, p99 %.2f ms\n"
    s.Live_net.Director.txns s.Live_net.Director.txn_p50_ms
    s.Live_net.Director.txn_p99_ms;
  exit (if s.Live_net.Director.digest_failures = 0 then 0 else 1)

(* ---- rebalance --------------------------------------------------- *)

let rebalance () =
  require_socket ();
  let a = admin_connect !socket in
  (match admin_rpc a (Wire.Rebalance { count = !count }) with
  | Wire.Ack { info } -> print_endline ("host_client: " ^ info)
  | Wire.Error { code; msg } ->
      die "host_client: rebalance refused (%d): %s" code msg
  | _ -> die "host_client: unexpected reply to Rebalance");
  admin_close a;
  exit 0

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve" :: rest -> parse rest; serve ()
  | _ :: "load" :: rest -> parse rest; load ()
  | _ :: "stats" :: rest -> parse rest; stats ()
  | _ :: "director" :: rest -> parse rest; director ()
  | _ :: "rebalance" :: rest -> parse rest; rebalance ()
  | _ -> usage ()
