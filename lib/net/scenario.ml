(** One runner for every wire fleet run (see the interface). *)

module Registry = Live_host.Registry
module Host_metrics = Live_host.Host_metrics
module Prng = Live_core.Prng

type topology =
  | Single
  | Directed of int
  | Spawned of { shards : int; serve : string -> string array }
  | External of string

type t = {
  socket : string;
  admin : Conn.t;
  pump : unit -> unit;
  registries : Registry.t list;
  director : Director.t option;
  halt : unit -> unit;  (** stop everything but the admin connection *)
  mutable stopped : bool;
}

let instances = ref 0

let rec wait_child pid =
  try ignore (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

(* SIGTERM every shard process, then reap it.  A [serve] unlinks its
   socket on the way out; the unlink here covers one that crashed. *)
let reap (procs : (int * string) list) : unit =
  List.iter
    (fun (pid, _) -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    procs;
  List.iter
    (fun (pid, path) ->
      wait_child pid;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    procs

(* [create_process] rather than [fork]: a shard is a separate
   executable, the argv [serve] returns, not a copy of this process. *)
let spawn (serve : string -> string array) (path : string) : int * string =
  let argv = serve path in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  (Unix.create_process argv.(0) argv Unix.stdin null Unix.stderr, path)

let start ?config ?batch (topology : topology) (program : Live_core.Program.t)
    : t =
  incr instances;
  let path name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "itsalive-%d-%d-%s.sock" (Unix.getpid ()) !instances name)
  in
  let server name = Server.create ?config ?batch ~socket:(path name) program in
  let shards n = List.init n (fun i -> path (string_of_int i)) in
  let servers, procs, directed =
    match topology with
    | Single -> ([ server "server" ], [], [])
    | Directed n ->
        (List.init n (fun i -> server (string_of_int i)), [], shards n)
    | Spawned { shards = n; serve } ->
        ([], List.map (spawn serve) (shards n), shards n)
    | External _ -> ([], [], [])
  in
  let step_servers () =
    List.iter (fun s -> ignore (Server.step ~timeout:0. s)) servers
  in
  let halt_shards () =
    List.iter Server.stop servers;
    reap procs
  in
  (* the director retries its connects while spawned shards bind *)
  let director =
    if directed = [] then None
    else
      match
        Director.create ~pump:step_servers ~socket:(path "director")
          ~shards:directed ()
      with
      | dir -> Some dir
      | exception e ->
          halt_shards ();
          raise e
  in
  let socket =
    match (topology, director) with
    | External socket, _ -> socket
    | _, Some _ -> path "director"
    | _, None -> path "server"
  in
  {
    socket;
    admin = Conn.connect socket;
    pump =
      (fun () ->
        step_servers ();
        Option.iter (fun d -> ignore (Director.step ~timeout:0. d)) director);
    registries = List.map Server.registry servers;
    director;
    halt =
      (fun () ->
        Option.iter Director.stop director;
        halt_shards ());
    stopped = false;
  }

let socket t = t.socket
let pump t = t.pump
let registries t = t.registries
let director t = t.director

let rpc (t : t) (f : Wire.client_frame) : Wire.host_frame =
  Conn.rpc ~pump:t.pump t.admin (Wire.Client f) (fun () -> Conn.next t.admin)

let stop (t : t) : unit =
  if not t.stopped then begin
    t.stopped <- true;
    Conn.close t.admin;
    t.halt ()
  end

(* ------------------------------------------------------------------ *)
(* Seeded runs                                                         *)
(* ------------------------------------------------------------------ *)

type spec = {
  config : Registry.config;
  batch : int;
  program : int -> Live_core.Program.t;
  sessions : int;
  conns : int;
  rounds : int;
  window : int;
  seed : int;
  draw : Prng.t -> Registry.uevent;
  updates : int list;
  rebalances : int list;
  moves : int;
  detach_every : int;
}

type outcome = {
  report : Client.report;
  seconds : float;
  metrics : Host_metrics.snapshot;
}

let streams (spec : spec) : Prng.t array =
  Array.init spec.sessions (fun slot ->
      Prng.create (Prng.derive spec.seed slot))

let run (t : t) (spec : spec) : (outcome, string) result =
  let rngs = streams spec in
  let gen ~slot ~round:_ : Wire.event =
    match spec.draw rngs.(slot) with
    | Registry.Tap { x; y } -> Wire.Ev_tap { x; y }
    | Registry.Back -> Wire.Ev_back
  in
  (* a refusal ends the run: [Client.run] turns [Conn.Failed] into
     [Error] after closing its connections *)
  let control what frame =
    match rpc t frame with
    | Wire.Ack _ -> ()
    | Wire.Error { code; msg } ->
        raise (Conn.Failed (Printf.sprintf "%s refused (%d): %s" what code msg))
    | _ -> raise (Conn.Failed ("unexpected reply to " ^ what))
  in
  let version = ref 0 in
  let on_round r =
    if List.mem r spec.updates then begin
      incr version;
      control
        (Printf.sprintf "update v%d" !version)
        (Wire.Update
           { program = Snapshot.program_to_string (spec.program !version) })
    end;
    if List.mem r spec.rebalances then
      control "rebalance" (Wire.Rebalance { count = spec.moves })
  in
  let t0 = Monotonic_clock.now () in
  match
    Client.run ~socket:t.socket ~conns:spec.conns ~sessions:spec.sessions
      ~rounds:spec.rounds ~gen ~window:spec.window
      ~barrier:(fun r -> List.mem r spec.updates || List.mem r spec.rebalances)
      ?detach_every:
        (if spec.detach_every > 0 then Some spec.detach_every else None)
      ~on_round ~pump:t.pump ()
  with
  | Error m -> Error m
  | Ok report -> (
      let seconds =
        Int64.(to_float (sub (Monotonic_clock.now ()) t0)) /. 1e9
      in
      match rpc t Wire.Stats_data with
      | Wire.Metrics { text } -> (
          match Host_metrics.import text with
          | Ok x ->
              let metrics = Host_metrics.merge_exported [ x ] in
              Ok { report; seconds; metrics }
          | Error m -> Error ("metrics: " ^ m))
      | _ -> Error "unexpected reply to Stats_data"
      | exception Conn.Failed m -> Error ("metrics: " ^ m))

let summary (o : outcome) : string list =
  let r = o.report in
  let ms q = Host_metrics.quantile r.latency q /. 1e6 in
  let pct a b = 100. *. float_of_int a /. float_of_int b in
  [
    Printf.sprintf "%d events in %.2f s (%.0f events/s end-to-end)"
      r.events_sent o.seconds
      (float_of_int r.events_sent /. o.seconds);
    Printf.sprintf
      "e2e latency p50 %.3f ms  p99 %.3f ms  (%d samples, %d rejected)"
      (ms 0.5) (ms 0.99)
      (Host_metrics.hist_count r.latency)
      r.rejected;
  ]
  @ (if r.full_rows = 0 then []
     else
       [
         Printf.sprintf
           "damage deltas shipped %d rows vs %d full-repaint rows (%.1f%%)"
           r.delta_rows r.full_rows (pct r.delta_rows r.full_rows);
       ])
  @
  if r.detaches = 0 then []
  else [ Printf.sprintf "%d detaches, %d resumes" r.detaches r.resumes ]

let shadow (spec : spec) : string array =
  let machine what =
    Result.iter_error (fun e ->
        failwith (what ^ ": " ^ Live_core.Machine.error_to_string e))
  in
  let reg = Registry.create ~config:spec.config (spec.program 0) in
  machine "shadow spawn" (Registry.spawn_many reg spec.sessions);
  let sched = Live_host.Scheduler.create ~batch:spec.batch reg in
  let rngs = streams spec in
  let version = ref 0 in
  for round = 0 to spec.rounds - 1 do
    Array.iteri
      (fun slot rng -> ignore (Registry.offer reg slot (spec.draw rng)))
      rngs;
    (match Live_host.Scheduler.drain sched with
    | Ok _ -> ()
    | Error m -> failwith ("shadow drain: " ^ m));
    if List.mem round spec.updates then begin
      incr version;
      machine
        (Printf.sprintf "shadow update v%d" !version)
        (Live_host.Broadcast.update reg (spec.program !version))
    end
  done;
  Array.init spec.sessions (fun slot ->
      Registry.observe_session (Option.get (Registry.session reg slot)))

(* ------------------------------------------------------------------ *)
(* The check                                                           *)
(* ------------------------------------------------------------------ *)

type verdict = { digest : string; problems : string list }

(* The painted pixels: what follows the observation's second "\n--\n"
   ({!Live_host.Registry.observe_session}). *)
let pixels (obs : string) : string option =
  let rec find from =
    if from + 4 > String.length obs then None
    else if String.sub obs from 4 = "\n--\n" then Some (from + 4)
    else find (from + 1)
  in
  Option.bind (find 0) find
  |> Option.map (fun i -> String.sub obs i (String.length obs - i))

let check (t : t) ~(shadow : string array) (o : outcome) : verdict =
  match rpc t Wire.Observe with
  | Wire.Observed { sessions = observed } ->
      let served = Hashtbl.of_seq (List.to_seq observed) in
      let problems = ref [] in
      let problem fmt =
        Printf.ksprintf (fun m -> problems := m :: !problems) fmt
      in
      if List.length observed <> Array.length shadow then
        problem "%d sessions served, %d replayed" (List.length observed)
          (Array.length shadow);
      List.iteri
        (fun slot id ->
          match Hashtbl.find_opt served id with
          | None -> problem "slot %d: session %d was not observed" slot id
          | Some obs ->
              if not (String.equal obs shadow.(slot)) then
                problem "slot %d: session %d differs from its replay" slot id;
              if
                Option.map Wire.rows_of_text (pixels obs)
                <> Some o.report.frames.(slot)
              then
                problem
                  "slot %d: the client's frame differs from the served pixels"
                  slot)
        o.report.session_ids;
      let problems = List.rev !problems and more = List.length !problems - 5 in
      {
        digest = Registry.digest_of observed;
        problems =
          (if more <= 0 then problems
           else
             List.filteri (fun i _ -> i < 5) problems
             @ [ Printf.sprintf "... and %d more" more ]);
      }
  | _ -> { digest = ""; problems = [ "unexpected reply to Observe" ] }
  | exception Conn.Failed m -> { digest = ""; problems = [ "observe: " ^ m ] }
