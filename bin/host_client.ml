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
      in-process afterwards and cross-checks the fleet digest over the
      wire
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

(* The seeded event stream, shared between the wire client and the
   in-process shadow replay so [--verify] consumes the prng streams
   identically on both sides. *)
let mk_gen () =
  let rngs =
    Array.init !sessions (fun s -> Prng.create (Prng.derive !seed s))
  in
  fun ~slot ~round:_ ->
    let rng = rngs.(slot) in
    if Prng.int rng 10 = 0 then Wire.Ev_back
    else Wire.Ev_tap { x = Prng.int rng !width; y = Prng.int rng (!rows + 3) }

(* Replay the exact load trace on a private single-process fleet and
   return its digest: the ground truth a directed (or single) host
   must match byte-for-byte. *)
let shadow_digest () =
  let module R = Live_host.Registry in
  let config = { R.default_config with R.width = !width } in
  let reg = R.create ~config (app 0) in
  let sched = Live_host.Scheduler.create reg in
  (match R.spawn_many reg !sessions with
  | Ok _ -> ()
  | Error e ->
      die "host_client: verify: spawn: %s"
        (Live_core.Machine.error_to_string e));
  let gen = mk_gen () in
  for round = 0 to !rounds - 1 do
    for s = 0 to !sessions - 1 do
      let ev =
        match gen ~slot:s ~round with
        | Wire.Ev_tap { x; y } -> R.Tap { x; y }
        | Wire.Ev_back -> R.Back
      in
      ignore (R.offer reg s ev)
    done;
    (match Live_host.Scheduler.drain sched with Ok _ | Error _ -> ());
    if !update_every > 0 && (round + 1) mod !update_every = 0 then
      match
        Live_host.Broadcast.update reg (app ((round + 1) / !update_every))
      with
      | Ok _ -> ()
      | Error e ->
          die "host_client: verify: shadow update: %s"
            (Live_core.Machine.error_to_string e)
  done;
  R.digest reg

let observed_digest (a : Conn.t) : string =
  match admin_rpc a Wire.Observe with
  | Wire.Observed { sessions = obs } ->
      let b = Buffer.create 4096 in
      List.iter
        (fun (id, o) ->
          Buffer.add_string b (Printf.sprintf "== session %d ==\n" id);
          Buffer.add_string b o)
        obs;
      Digest.to_hex (Digest.string (Buffer.contents b))
  | Wire.Error { code; msg } ->
      die "host_client: observe failed (%d): %s" code msg
  | _ -> die "host_client: unexpected reply to Observe"

let load () =
  require_socket ();
  if !conns = 0 then conns := min !sessions 16;
  if !conns > !sessions then conns := !sessions;
  if !window < 1 then die "host_client: --window must be >= 1";
  if !verify && !detach_every > 0 then
    die
      "host_client: --verify needs stable session ids; drop --detach-every";
  let gen = mk_gen () in
  let admin = ref None in
  let admin_get () =
    match !admin with
    | Some a -> a
    | None ->
        let a = admin_connect !socket in
        admin := Some a;
        a
  in
  let updates_sent = ref 0 and rebalances_sent = ref 0 in
  let on_round r =
    if !update_every > 0 && (r + 1) mod !update_every = 0 then begin
      let v = (r + 1) / !update_every in
      match
        admin_rpc (admin_get ())
          (Wire.Update { program = Live_net.Snapshot.program_to_string (app v) })
      with
      | Wire.Ack _ -> incr updates_sent
      | Wire.Error { code; msg } ->
          die "host_client: update refused (%d): %s" code msg
      | _ -> die "host_client: unexpected reply to Update"
    end;
    if !rebalance_every > 0 && (r + 1) mod !rebalance_every = 0 then
      match admin_rpc (admin_get ()) (Wire.Rebalance { count = !count }) with
      | Wire.Ack _ -> incr rebalances_sent
      | Wire.Error { code; msg } ->
          die "host_client: rebalance refused (%d): %s" code msg
      | _ -> die "host_client: unexpected reply to Rebalance"
  in
  (* the rounds on_round acts at must be full barriers: broadcasts and
     rebalances land on a quiescent fleet whatever the window *)
  let barrier r =
    (!update_every > 0 && (r + 1) mod !update_every = 0)
    || (!rebalance_every > 0 && (r + 1) mod !rebalance_every = 0)
  in
  let t0 = Unix.gettimeofday () in
  match
    Live_net.Client.run ~socket:!socket ~conns:!conns ~sessions:!sessions
      ~rounds:!rounds ~gen ~window:!window ~barrier
      ?detach_every:(if !detach_every > 0 then Some !detach_every else None)
      ~on_round ~stats:true ()
  with
  | Error m ->
      prerr_endline ("host_client: load failed: " ^ m);
      exit 1
  | Ok r ->
      let dt = Unix.gettimeofday () -. t0 in
      let p q =
        Live_host.Host_metrics.quantile r.Live_net.Client.latency q /. 1e6
      in
      Printf.printf "load: %d sessions x %d rounds over %d connections%s\n"
        !sessions r.Live_net.Client.rounds !conns
        (if !window > 1 then Printf.sprintf " (window %d)" !window else "");
      Printf.printf "load: %d events in %.2f s (%.0f events/s)\n"
        r.Live_net.Client.events_sent dt
        (float_of_int r.Live_net.Client.events_sent /. dt);
      Printf.printf "load: e2e latency p50 %.3f ms  p99 %.3f ms (%d rejected)\n"
        (p 0.5) (p 0.99) r.Live_net.Client.rejected;
      if r.Live_net.Client.full_rows > 0 then
        Printf.printf "load: delta rows %d vs full-repaint rows %d (%.1f%%)\n"
          r.Live_net.Client.delta_rows r.Live_net.Client.full_rows
          (100.
          *. float_of_int r.Live_net.Client.delta_rows
          /. float_of_int r.Live_net.Client.full_rows);
      if r.Live_net.Client.detaches > 0 then
        Printf.printf "load: %d detaches, %d resumes\n"
          r.Live_net.Client.detaches r.Live_net.Client.resumes;
      (match r.Live_net.Client.metrics with
      | Some m -> print_string m
      | None -> ());
      if !updates_sent > 0 || !rebalances_sent > 0 then
        Printf.printf "load: %d fleet updates, %d rebalances\n" !updates_sent
          !rebalances_sent;
      let ok = ref true in
      if !verify then begin
        let wire = observed_digest (admin_get ()) in
        let shadow = shadow_digest () in
        if String.equal wire shadow then
          Printf.printf "verify: fleet digest %s matches shadow replay\n" wire
        else begin
          Printf.printf "verify: FLEET DIGEST MISMATCH wire %s shadow %s\n"
            wire shadow;
          ok := false
        end
      end;
      (match !admin with Some a -> admin_close a | None -> ());
      exit (if !ok then 0 else 1)

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
