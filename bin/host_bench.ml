(** The multi-session host load driver (lib/host; DESIGN.md §7):
    spawn a fleet of sessions over the synthetic workload, replay
    seeded per-session event streams through the bounded ingress
    queues and the batching scheduler, fire mid-stream broadcast
    updates, and dump {!Live_host.Host_metrics} — including p50/p99
    tick latency and update fan-out time.

    Exit status 0 iff the run completed with zero invariant
    violations, a clean dropped-event accounting identity, and every
    broadcast applied; 1 otherwise; 2 on usage errors.

    {v
    host_bench --sessions 1000 --seed 42       # the acceptance run
    host_bench --sessions 100 --soak 60        # the CI soak job
    host_bench --policy hottest-first --cache  # other configurations
    host_bench --evaluator subst --digest      # the substitution engine
    host_bench --net --conns 25                # over real Unix sockets
    host_bench --net --soak 60 --detach-every 5  # the net soak job
    v}

    Determinism contract: for a fixed [--seed], the final fleet state
    is a pure function of the replayed trace — [--digest] prints the
    same MD5 for both [--evaluator] engines (see
    [Live_core.Compile_eval]) and both [--policy] service orders (see
    [Live_host.Registry.digest]).  [--soak] enforces the former
    directly: it drives a lockstep shadow fleet under the {e other}
    evaluator over the same trace and fails unless the two digests
    agree. *)

module H = Live_host
module Session = Live_runtime.Session
module Prng = Live_core.Prng

let usage () =
  prerr_endline
    {|usage: host_bench [options]
  --sessions K        fleet size (default 100)
  --seed N            master event-stream seed (default 42)
  --events N          events per session (default 50)
  --updates U         mid-stream broadcast updates (default 2)
  --batch B           scheduler batch per session per tick (default 8)
  --policy P          round-robin | hottest-first (default round-robin)
  --queue-capacity Q  per-session ingress bound (default 64)
  --queue-policy P    drop-oldest | reject (default drop-oldest)
  --admission N       fleet-wide pending-event cap (default: none)
  --cache             enable the incremental render pipeline
  --rows N            rows in the synthetic app (default 8)
  --width W           display width (default 32)
  --evaluator E       subst | compiled (default compiled): execution
                      engine for every session in the fleet
  --typecheck M       scratch | incremental | both (default incremental):
                      how broadcasts discharge the UPDATE typecheck.
                      "both" cross-checks the two checkers on every
                      broadcast AND replays the whole run against a
                      lockstep scratch-mode shadow fleet, failing
                      unless the final MD5 digests agree
  --edit-size N       broadcast N-definition structural edits (via
                      Program.with_def on cold definitions, preserving
                      physical sharing) instead of whole-program
                      version bumps; prints the per-broadcast
                      typecheck / diff / compile / fan-out breakdown
  --digest            print the fleet's MD5 state digest (the
                      determinism contract: equal across --evaluator
                      engines and across --policy orders)
  --soak SECS         wall-clock soak: run SECS seconds, broadcast ~1/s,
                      and digest-cross-check a lockstep shadow fleet
                      running the other evaluator
  --rollout-soak SECS wall-clock staged-rollout soak: run SECS seconds,
                      open a staged rollout every ~5 s (seeded random
                      promote/rollback), and digest-cross-check a
                      lockstep shadow fleet that takes each promoted
                      change set as one flat broadcast and never sees
                      a rolled-back one; nonzero exit on divergence
  --net               drive the fleet over real Unix-domain sockets:
                      an in-process lib/net server plus the lockstep
                      load client, one event per session per round.
                      Reports end-to-end (event-written to
                      delta-decoded) p50/p99 latency and the damage
                      delta vs full-repaint byte ratio, then replays
                      the identical seeded trace on a direct
                      in-process fleet and fails unless every session
                      and every client frame agree with it, slot by
                      slot (transport invariance).  With
                      --soak SECS, runs the wall-clock net soak
                      (periodic detach/resume, one broadcast at
                      half-time) instead of a fixed --events count
  --conns C           connections the --net client multiplexes the
                      fleet over (default: min(sessions, 16))
  --window W          per-session in-flight event budget for the --net
                      or --shards client (default 1 = lockstep).  With
                      W > 1 the client pipelines up to W rounds of a
                      session's events before waiting for delta
                      credits; broadcasts and rebalances still land at
                      full barriers, so the digest contract is
                      unchanged
  --fork              under --shards: spawn each shard server as a
                      sibling host_client serve process running its
                      own select loop, so shards execute on separate
                      cores.  The director, the client and the check
                      are unchanged — transport invariance must hold
                      across process boundaries too
  --detach-every K    under --net or --shards: detach one session
                      (rotating) to a client-held snapshot and resume
                      it every K rounds (default 0 = never; the net
                      soak defaults to 5)
  --shards N          drive the fleet through an in-process shard
                      director fronting N shard servers over real
                      Unix-domain sockets: fleet-wide UPDATEs run as
                      two-phase commits, one mid-run rebalance
                      migrates ~10% of the fleet between shards, and
                      the directed fleet is checked slot by slot
                      against a direct in-process shadow replay of the
                      identical seeded trace.  With --soak SECS, runs
                      complete sharded cycles back to back
  --quiet             no per-phase progress|};
  exit 2

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

let sessions = ref 100
let seed = ref 42
let events = ref 50
let updates = ref 2
let batch = ref 8
let policy = ref H.Scheduler.Round_robin
let queue_capacity = ref 64
let queue_policy = ref H.Backpressure.Drop_oldest
let admission = ref None
let cache = ref false
let rows = ref 8
let width = ref 32
let digest = ref false
let soak = ref None
let rollout_soak = ref None
let quiet = ref false
let evaluator = ref Live_core.Machine.Compiled
let typecheck = ref H.Broadcast.Incremental
let edit_size = ref 0
let net = ref false
let conns = ref 0 (* 0 = auto: min (sessions, 16) *)
let detach_every = ref 0
let shards = ref 0 (* 0 = no director; N > 0 = directed N-shard fleet *)
let window = ref 1
let fork = ref false

let evaluator_name = function
  | Live_core.Machine.Subst -> "subst"
  | Live_core.Machine.Compiled -> "compiled"

let other_evaluator = function
  | Live_core.Machine.Subst -> Live_core.Machine.Compiled
  | Live_core.Machine.Compiled -> Live_core.Machine.Subst

let parse_args () =
  let rec parse = function
    | [] -> ()
    | "--sessions" :: v :: rest ->
        sessions := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--events" :: v :: rest ->
        events := int_of_string v;
        parse rest
    | "--updates" :: v :: rest ->
        updates := int_of_string v;
        parse rest
    | "--batch" :: v :: rest ->
        batch := int_of_string v;
        parse rest
    | "--policy" :: v :: rest -> (
        match H.Scheduler.policy_of_string v with
        | Some p ->
            policy := p;
            parse rest
        | None ->
            Printf.eprintf "unknown policy %S\n" v;
            usage ())
    | "--queue-capacity" :: v :: rest ->
        queue_capacity := int_of_string v;
        parse rest
    | "--queue-policy" :: v :: rest -> (
        match H.Backpressure.policy_of_string v with
        | Some p ->
            queue_policy := p;
            parse rest
        | None ->
            Printf.eprintf "unknown queue policy %S\n" v;
            usage ())
    | "--admission" :: v :: rest ->
        admission := Some (int_of_string v);
        parse rest
    | "--cache" :: rest ->
        cache := true;
        parse rest
    | "--rows" :: v :: rest ->
        rows := int_of_string v;
        parse rest
    | "--width" :: v :: rest ->
        width := int_of_string v;
        parse rest
    | "--evaluator" :: v :: rest -> (
        match v with
        | "subst" ->
            evaluator := Live_core.Machine.Subst;
            parse rest
        | "compiled" ->
            evaluator := Live_core.Machine.Compiled;
            parse rest
        | _ ->
            Printf.eprintf "unknown evaluator %S (subst | compiled)\n" v;
            usage ())
    | "--typecheck" :: v :: rest -> (
        match v with
        | "scratch" ->
            typecheck := H.Broadcast.Scratch;
            parse rest
        | "incremental" ->
            typecheck := H.Broadcast.Incremental;
            parse rest
        | "both" ->
            typecheck := H.Broadcast.Cross_check;
            parse rest
        | _ ->
            Printf.eprintf "unknown typecheck mode %S (scratch | incremental | both)\n" v;
            usage ())
    | "--edit-size" :: v :: rest ->
        edit_size := int_of_string v;
        if !edit_size < 0 then begin
          prerr_endline "--edit-size must be >= 0";
          usage ()
        end;
        parse rest
    | "--digest" :: rest ->
        digest := true;
        parse rest
    | "--soak" :: v :: rest ->
        soak := Some (float_of_string v);
        parse rest
    | "--rollout-soak" :: v :: rest ->
        rollout_soak := Some (float_of_string v);
        parse rest
    | "--net" :: rest ->
        net := true;
        parse rest
    | "--conns" :: v :: rest ->
        conns := int_of_string v;
        parse rest
    | "--detach-every" :: v :: rest ->
        detach_every := int_of_string v;
        parse rest
    | "--shards" :: v :: rest ->
        shards := int_of_string v;
        parse rest
    | "--window" :: v :: rest ->
        window := int_of_string v;
        parse rest
    | "--fork" :: rest ->
        fork := true;
        parse rest
    | "--quiet" :: rest ->
        quiet := true;
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown option %S\n" other;
        usage ()
  in
  try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ()

(** The sibling [host_client] binary, which [--fork] spawns as shard
    servers. *)
let host_client_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "host_client.exe"

(** Reject nonsensical flag combinations up front, before any fleet is
    spawned — a bad invocation must die with a usage message, never
    silently ignore one of its flags (the old behaviour when --soak
    and --rollout-soak were both given). *)
let validate_flags () =
  let err m =
    prerr_endline m;
    usage ()
  in
  if !sessions < 1 then err "--sessions must be >= 1";
  if !events < 1 then err "--events must be >= 1";
  if !updates < 0 then err "--updates must be >= 0";
  if !batch < 1 then err "--batch must be >= 1";
  if !queue_capacity < 1 then err "--queue-capacity must be >= 1";
  (match !admission with
  | Some a when a < 1 -> err "--admission must be >= 1"
  | _ -> ());
  if !rows < 1 then err "--rows must be >= 1";
  if !width < 4 then err "--width must be >= 4";
  (match !soak with
  | Some s when s <= 0. -> err "--soak seconds must be > 0"
  | _ -> ());
  (match !rollout_soak with
  | Some s when s <= 0. -> err "--rollout-soak seconds must be > 0"
  | _ -> ());
  if !soak <> None && !rollout_soak <> None then
    err "--soak and --rollout-soak are mutually exclusive";
  if !shards < 0 then err "--shards must be >= 0 (0 = no director)";
  if !shards > 0 && !net then
    err "--shards already drives the fleet over the wire; drop --net";
  let wire = !net || !shards > 0 in
  let mode = if !net then "--net" else "--shards" in
  if wire && !rollout_soak <> None then
    err (mode ^ " does not support --rollout-soak");
  (* wire updates are whole programs through the endpoint's UPDATE *)
  if wire && !edit_size <> 0 then
    err (mode ^ " broadcasts whole-program versions; drop --edit-size");
  if wire && !typecheck <> H.Broadcast.Incremental then
    err (mode ^ " typechecks updates as the endpoint does; drop --typecheck");
  if (not wire) && !conns <> 0 then err "--conns requires --net or --shards";
  if !window < 1 then err "--window must be >= 1";
  if !window > 1 && not wire then err "--window requires --net or --shards";
  if !fork && !shards = 0 then err "--fork requires --shards";
  if !fork && !admission <> None then
    err "--fork spawns host_client serve, which has no --admission";
  if !fork && not (Sys.file_exists host_client_exe) then
    err (host_client_exe ^ " not found; build it first (dune build)");
  if (not wire) && !detach_every <> 0 then
    err "--detach-every requires --net or --shards";
  if !conns < 0 then err "--conns must be >= 1";
  if !conns > 256 then err "--conns must be <= 256 (select fd budget)";
  if !detach_every < 0 then err "--detach-every must be >= 0";
  if wire && !conns = 0 then conns := min !sessions 16;
  if wire && !conns > !sessions then conns := !sessions

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let compile_version (v : int) : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~cold:!edit_size ~rows:!rows
        ~version:v ()))
    .Live_surface.Compile.core

(** An [--edit-size]-definition structural edit: bump the initial
    values of the app's cold globals [c0..c{n-1}] with
    [Program.with_def], leaving every other definition {e physically}
    shared with the current program.  This is how a real editor-driven
    host would hand an edit to the broadcast — only the touched
    definitions are new values — and it is what makes the diff's
    unchanged-classification O(1) per untouched definition.  [stamp]
    makes the edit deterministic per version so lockstep fleets
    derive identical programs. *)
let structural_edit (reg : H.Registry.t) ~(stamp : int) (n : int) :
    Live_core.Program.t =
  let module P = Live_core.Program in
  let p = ref (H.Registry.program reg) in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "c%d" i in
    match P.find !p name with
    | Some (P.Global { name; ty; _ }) ->
        p :=
          P.with_def !p
            (P.Global
               {
                 name;
                 ty;
                 init = Live_core.Ast.VNum (float_of_int ((1000 * stamp) + i));
               })
    | _ -> fail "--edit-size: cold global %s not found" name
  done;
  !p

(** The next broadcast's program: a structural edit of the current one
    ([--edit-size] > 0) or a whole-source version bump. *)
let next_edit (reg : H.Registry.t) (version : int) : Live_core.Program.t =
  if !edit_size > 0 then structural_edit reg ~stamp:version !edit_size
  else compile_version version

(** One seeded user event: mostly taps across the app's tappable band
    (some deliberately miss), occasionally BACK.  Each session draws
    from its own derived stream, so fleets of different sizes replay
    identical per-session behaviour. *)
let gen_event (rng : Prng.t) : H.Registry.uevent =
  if Prng.int rng 10 = 0 then H.Registry.Back
  else
    H.Registry.Tap
      { x = Prng.int rng !width; y = Prng.int rng (!rows + 3) }

let say fmt =
  Printf.ksprintf
    (fun s ->
      if not !quiet then begin
        print_string s;
        flush stdout
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

let check_fleet (reg : H.Registry.t) (where : string) =
  match H.Registry.check_invariants reg with
  | [] -> ()
  | vs ->
      List.iter
        (fun (id, m) -> fail "%s: session %d violates invariant: %s" where id m)
        (if List.length vs > 5 then [ List.hd vs ] else vs);
      if List.length vs > 5 then
        fail "%s: ... and %d more invariant violations" where
          (List.length vs - 1)

let check_accounting (s : H.Host_metrics.snapshot) (where : string) =
  if not (H.Host_metrics.accounting_ok s) then
    fail
      "%s: dropped-event accounting mismatch: in=%d processed=%d dropped=%d \
       rejected=%d pending=%d"
      where s.H.Host_metrics.s_events_in s.H.Host_metrics.s_events_processed
      s.H.Host_metrics.s_events_dropped s.H.Host_metrics.s_events_rejected
      s.H.Host_metrics.s_pending

let drain (what : string) (sched : H.Scheduler.t) =
  match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> fail "%s: %s" what m

let broadcast ?(silent = false) ?(typecheck = !typecheck) (reg : H.Registry.t)
    (version : int) (code : Live_core.Program.t) =
  match H.Broadcast.update ~typecheck reg code with
  | Ok r ->
      if not silent then begin
        say "  broadcast v%d: %d sessions in %.2f ms (%d globals reset)\n"
          version
          (List.length r.H.Broadcast.outcomes)
          (r.H.Broadcast.fanout_ns /. 1e6)
          r.H.Broadcast.dropped_globals;
        say
          "    typecheck %s %.3f ms; diff %.3f ms (%d dirty / %d rechecked \
           defs); compile %.3f ms\n"
          (if r.H.Broadcast.incremental then "incremental" else "scratch")
          (r.H.Broadcast.typecheck_ns /. 1e6)
          (r.H.Broadcast.diff_ns /. 1e6)
          r.H.Broadcast.dirty_defs r.H.Broadcast.recheck_defs
          (r.H.Broadcast.compile_ns /. 1e6)
      end;
      List.iter
        (fun o ->
          match o.H.Broadcast.outcome with
          | Ok _ -> ()
          | Error e ->
              fail "broadcast v%d: session %d failed: %s" version
                o.H.Broadcast.id
                (Live_core.Machine.error_to_string e))
        r.H.Broadcast.outcomes
  | Error e ->
      fail "broadcast v%d rejected: %s" version
        (Live_core.Machine.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_config (ev : Live_core.Machine.evaluator) : H.Registry.config =
  {
    H.Registry.default_config with
    H.Registry.width = !width;
    cache = !cache;
    queue_capacity = !queue_capacity;
    queue_policy = !queue_policy;
    admission_limit = !admission;
    evaluator = ev;
  }

(** The broadcast rounds: mid-stream, never round 0, never after the
    last round. *)
let update_rounds () : int list =
  List.init !updates (fun u -> max 1 (!events * (u + 1) / (!updates + 1)))

let make_fleet ?(ev = !evaluator) () : H.Registry.t * H.Scheduler.t =
  let reg = H.Registry.create ~config:(fleet_config ev) (compile_version 0) in
  (match H.Registry.spawn_many reg !sessions with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "spawn failed: %s\n" (Live_core.Machine.error_to_string e);
      exit 1);
  (reg, H.Scheduler.create ~policy:!policy ~batch:!batch reg)

(** Per-round burst for one session: 1-3 events, so pending batches
    build up and the scheduler's render coalescing has work to do. *)
let offer_burst (reg : H.Registry.t) (rng : Prng.t) (id : H.Registry.id) =
  for _ = 0 to Prng.int rng 3 do
    ignore (H.Registry.offer reg id (gen_event rng))
  done

(** Seeded load run: [events] rounds; each round offers a small burst
    per session then ticks once, and the configured number of
    broadcasts fire at evenly spaced mid-stream rounds. *)
let run_load () : H.Registry.t =
  let t0 = H.Host_metrics.now () in
  let reg, sched = make_fleet () in
  (* under --typecheck both, a lockstep shadow fleet replays the whole
     run with scratch-mode broadcasts; the final MD5 digests must
     agree — end-to-end evidence that the incremental pipeline
     (typecheck reuse, targeted fix-up, cache retargeting) is
     observationally invisible *)
  let shadow =
    if !typecheck = H.Broadcast.Cross_check then Some (make_fleet ())
    else None
  in
  say "fleet: %d sessions up in %.2f s%s\n" (H.Registry.size reg)
    (H.Host_metrics.now () -. t0)
    (if shadow <> None then " (+ scratch-typecheck shadow fleet)" else "");
  let ids = Array.of_list (H.Registry.ids reg) in
  let rngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let srngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let update_rounds = update_rounds () in
  let version = ref 0 in
  let t1 = H.Host_metrics.now () in
  for round = 0 to !events - 1 do
    Array.iteri (fun i id -> offer_burst reg rngs.(i) id) ids;
    ignore (H.Scheduler.tick sched);
    Option.iter
      (fun (sreg, ssched) ->
        Array.iteri (fun i id -> offer_burst sreg srngs.(i) id) ids;
        ignore (H.Scheduler.tick ssched))
      shadow;
    if List.mem round update_rounds then begin
      incr version;
      broadcast reg !version (next_edit reg !version);
      Option.iter
        (fun (sreg, _) ->
          broadcast ~silent:true ~typecheck:H.Broadcast.Scratch sreg !version
            (next_edit sreg !version))
        shadow
    end
  done;
  drain "drain" sched;
  let dt = H.Host_metrics.now () -. t1 in
  check_fleet reg "end of run";
  check_accounting (H.Registry.snapshot reg) "end of run";
  Option.iter
    (fun (sreg, ssched) ->
      drain "shadow drain" ssched;
      check_fleet sreg "end of run (scratch shadow)";
      let d = H.Registry.digest reg and sd = H.Registry.digest sreg in
      if String.equal d sd then
        say
          "typecheck cross-check: incremental and scratch fleets \
           digest-identical (%s)\n"
          d
      else
        fail
          "typecheck cross-check: incremental fleet digest %s <> scratch \
           fleet digest %s — the broadcast pipelines diverged"
          d sd)
    shadow;
  let s = H.Registry.snapshot reg in
  say "load: %d events in %.2f s (%.0f events/s)\n"
    s.H.Host_metrics.s_events_processed dt
    (float_of_int s.H.Host_metrics.s_events_processed /. dt);
  reg

(** Wall-clock soak: offer-and-tick continuously, broadcast roughly
    once a second, re-check the fleet invariants and the accounting
    identity at every broadcast.

    The soak also exercises the evaluator-equivalence contract: a
    {e shadow} fleet running the other execution engine (compiled vs
    substitution) replays the exact same event trace in lockstep — same
    per-session seeds, same bursts, same broadcast rounds — and the two
    fleets' MD5 state digests must agree at the end.  A single
    diverging value anywhere in any session's store, page stack, or
    display fails the run. *)
let run_soak (secs : float) : H.Registry.t =
  let reg, sched = make_fleet () in
  let shadow_ev = other_evaluator !evaluator in
  let sreg, ssched = make_fleet ~ev:shadow_ev () in
  say
    "soak: %d sessions for %.0f s, ~1 broadcast/s; lockstep %s shadow fleet \
     for the digest cross-check\n"
    (H.Registry.size reg) secs (evaluator_name shadow_ev);
  let ids = Array.of_list (H.Registry.ids reg) in
  let rngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let srngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let t0 = H.Host_metrics.now () in
  let last_update = ref t0 in
  let version = ref 0 in
  while H.Host_metrics.now () -. t0 < secs do
    Array.iteri (fun i id -> offer_burst reg rngs.(i) id) ids;
    Array.iteri (fun i id -> offer_burst sreg srngs.(i) id) ids;
    ignore (H.Scheduler.tick sched);
    ignore (H.Scheduler.tick ssched);
    let now = H.Host_metrics.now () in
    if now -. !last_update >= 1.0 then begin
      last_update := now;
      incr version;
      broadcast reg !version (next_edit reg !version);
      broadcast ~silent:true sreg !version (next_edit sreg !version);
      check_fleet reg (Printf.sprintf "soak t=%.0fs" (now -. t0));
      check_accounting (H.Registry.snapshot reg)
        (Printf.sprintf "soak t=%.0fs" (now -. t0))
    end
  done;
  drain "drain" sched;
  drain "shadow drain" ssched;
  check_fleet reg "end of soak";
  check_fleet sreg "end of soak (shadow)";
  check_accounting (H.Registry.snapshot reg) "end of soak";
  let d = H.Registry.digest reg and sd = H.Registry.digest sreg in
  if String.equal d sd then
    say "soak cross-check: %s and %s fleets digest-identical (%s)\n"
      (evaluator_name !evaluator) (evaluator_name shadow_ev) d
  else
    fail
      "soak cross-check: %s fleet digest %s <> %s fleet digest %s — the \
       evaluators diverged"
      (evaluator_name !evaluator) d (evaluator_name shadow_ev) sd;
  reg

(** Wall-clock staged-rollout soak: continuous fleet-wide traffic, and
    every ~5 s a full rollout lifecycle — stage a change set as a
    second epoch, canary it on a deterministic cohort under live
    window traffic, observe both cohorts, then resolve with a seeded
    coin flip.

    The equivalence contract rides a lockstep {e flat} shadow fleet:
    when the coin says promote, the shadow takes the same change set
    as one plain broadcast at the canary point; when it says rollback,
    the shadow never sees the edit at all.  Window traffic is routed so
    both fleets provably serve the same trace under the same code
    (canary cohort only while a promote is pending; everyone during a
    rollback window, which the journal replay then erases).  At the
    end the two MD5 digests must agree — promote ≡ one-shot broadcast,
    rollback ≡ never rolled out, under sustained load.  Any divergence,
    invariant violation, cohort accounting mismatch, or epoch crossing
    is a nonzero exit.  Every stage runs between ticks. *)
let run_rollout_soak (secs : float) : H.Registry.t =
  let reg, sched = make_fleet () in
  let sreg, ssched = make_fleet () in
  say
    "rollout soak: %d sessions for %.0f s, staged rollout every ~5 s \
     (seeded promote/rollback); lockstep flat-broadcast shadow fleet for \
     the digest cross-check\n"
    (H.Registry.size reg) secs;
  let ids = Array.of_list (H.Registry.ids reg) in
  let index = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let rngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let srngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  (* one round of lockstep traffic to [targets] on both fleets; each
     session draws from its own stream, so restricting the target list
     keeps the two fleets' RNG consumption aligned *)
  let round targets =
    List.iter
      (fun id ->
        let i = Hashtbl.find index id in
        offer_burst reg rngs.(i) id;
        offer_burst sreg srngs.(i) id)
      targets;
    ignore (H.Scheduler.tick sched);
    ignore (H.Scheduler.tick ssched)
  in
  let all = Array.to_list ids in
  let crng = Prng.create (Prng.derive !seed 999_983) in
  let version = ref 0 in
  let promoted = ref 0 and rolled_back = ref 0 in
  let t0 = H.Host_metrics.now () in
  let last_rollout = ref t0 in
  while H.Host_metrics.now () -. t0 < secs do
    round all;
    let now = H.Host_metrics.now () in
    if now -. !last_rollout >= 5.0 then begin
      last_rollout := now;
      incr version;
      let promote = Prng.bool crng in
      let target = next_edit reg !version in
      match
        H.Rollout.begin_ ~typecheck:!typecheck ~fraction:0.25
          ~seed:(Prng.derive !seed (7_000 + !version))
          reg target
      with
      | Error e ->
          fail "rollout v%d refused: %s" !version
            (Live_core.Machine.error_to_string e)
      | Ok r ->
          let window = if promote then H.Rollout.canary_ids r else all in
          for _ = 1 to 3 do
            round window
          done;
          List.iter
            (fun o ->
              match o.H.Broadcast.outcome with
              | Ok _ -> ()
              | Error e ->
                  fail "rollout v%d: canary %d failed: %s" !version
                    o.H.Broadcast.id
                    (Live_core.Machine.error_to_string e))
            (H.Rollout.canary r);
          if promote then
            broadcast ~silent:true sreg !version (next_edit sreg !version);
          for _ = 1 to 3 do
            round window
          done;
          let h = H.Rollout.observe r in
          if not (H.Rollout.healthy h) then
            fail "rollout v%d unhealthy mid-canary: %s" !version
              (H.Rollout.summary r);
          if promote then begin
            incr promoted;
            List.iter
              (fun o ->
                match o.H.Broadcast.outcome with
                | Ok _ -> ()
                | Error e ->
                    fail "rollout v%d: promote of %d failed: %s" !version
                      o.H.Broadcast.id
                      (Live_core.Machine.error_to_string e))
              (H.Rollout.promote r)
          end
          else begin
            incr rolled_back;
            List.iter
              (fun (id, e) ->
                fail "rollout v%d: rollback replay of %d failed: %s" !version
                  id
                  (Live_core.Machine.error_to_string e))
              (H.Rollout.rollback r)
          end;
          (match H.Registry.check_epochs reg with
          | [] -> ()
          | vs ->
              List.iter
                (fun (id, m) ->
                  fail "rollout v%d: session %d crosses epochs: %s" !version
                    id m)
                vs);
          check_fleet reg (Printf.sprintf "after rollout v%d" !version);
          check_accounting (H.Registry.snapshot reg)
            (Printf.sprintf "after rollout v%d" !version);
          say "  rollout v%d %s (t=%.0fs)\n" !version
            (if promote then "promoted" else "rolled back")
            (now -. t0)
    end
  done;
  drain "drain" sched;
  drain "shadow drain" ssched;
  check_fleet reg "end of rollout soak";
  check_fleet sreg "end of rollout soak (flat shadow)";
  check_accounting (H.Registry.snapshot reg) "end of rollout soak";
  if !version = 0 then fail "no rollout was staged during the soak";
  let d = H.Registry.digest reg and sd = H.Registry.digest sreg in
  if String.equal d sd then
    say
      "rollout cross-check: staged fleet (%d promoted, %d rolled back) and \
       flat fleet digest-identical (%s)\n"
      !promoted !rolled_back d
  else
    fail
      "rollout cross-check: staged fleet digest %s <> flat fleet digest %s \
       — promote/rollback is not equivalent to the flat path"
      d sd;
  reg

(* ------------------------------------------------------------------ *)
(* The wire fleet (lib/net/scenario)                                   *)
(* ------------------------------------------------------------------ *)

module Scenario = Live_net.Scenario

(** [--fork]'s shard: the sibling [host_client serve] over the same app
    and registry config. *)
let serve_command (socket : string) : string array =
  Array.of_list
    ([ host_client_exe; "serve"; "--socket"; socket;
       "--width"; string_of_int !width; "--rows"; string_of_int !rows;
       "--batch"; string_of_int !batch;
       "--queue-capacity"; string_of_int !queue_capacity;
       "--queue-policy"; H.Backpressure.policy_to_string !queue_policy;
       "--evaluator"; evaluator_name !evaluator ]
    @ if !cache then [ "--cache" ] else [])

(** One complete wire run: the topology ([--net]: one in-process server;
    [--shards N]: a director over N in-process shards, or over N
    [host_client serve] processes with [--fork]), the load client with
    one event per session per round from the load mode's per-session
    streams, broadcasts at the load mode's rounds and under [--shards]
    one mid-run rebalance of ~10% of the fleet, then the check — an
    in-process replay of the identical seeded trace must agree with the
    served fleet slot for slot, and every client frame rebuilt from
    deltas with the served pixels.  Sharding, the wire, two-phase
    UPDATE, detach/resume and live migration must all be
    observationally invisible.  Returns the fleet metrics and the
    served digest. *)
let run_wire ~(seed : int) ~(detach_every : int) ~(label : string) :
    H.Host_metrics.snapshot * string =
  let spec =
    {
      Scenario.config = fleet_config !evaluator;
      batch = !batch;
      program = compile_version;
      sessions = !sessions;
      conns = !conns;
      rounds = !events;
      window = !window;
      seed;
      draw = gen_event;
      updates = update_rounds ();
      rebalances = (if !shards > 0 then [ max 1 (!events / 2) ] else []);
      moves = max 1 (!sessions / 10);
      detach_every;
    }
  in
  let topology, over =
    if !shards = 0 then (Scenario.Single, "one server")
    else if !fork then
      ( Scenario.Spawned { shards = !shards; serve = serve_command },
        Printf.sprintf "%d shard processes" !shards )
    else (Scenario.Directed !shards, Printf.sprintf "%d shards" !shards)
  in
  let fleet =
    Scenario.start ~config:spec.config ~batch:spec.batch topology
      (spec.program 0)
  in
  Fun.protect ~finally:(fun () -> Scenario.stop fleet) @@ fun () ->
  say "%s: %d sessions over %s (%d connections), %d rounds%s%s\n" label
    !sessions over !conns !events
    (if !window > 1 then Printf.sprintf ", window %d" !window else "")
    (if detach_every > 0 then
       Printf.sprintf ", detach/resume every %d rounds" detach_every
     else "");
  match Scenario.run fleet spec with
  | Error m ->
      fail "%s: %s" label m;
      (H.Host_metrics.merge_exported [], "")
  | Ok o ->
      List.iter (say "%s: %s\n" label) (Scenario.summary o);
      Option.iter
        (fun dir ->
          let ds = Live_net.Director.stats dir in
          say
            "%s: updates %d committed / %d rejected; rebalance moved %d \
             sessions\n"
            label ds.updates_committed ds.updates_rejected ds.sessions_moved;
          List.iter
            (fun (ep, k) -> say "%s:   %-40s %d sessions\n" label ep k)
            ds.per_shard)
        (Scenario.director fleet);
      List.iter
        (fun reg -> check_fleet reg (label ^ ": end of run"))
        (Scenario.registries fleet);
      check_accounting o.metrics (label ^ ": end of run");
      let v = Scenario.check fleet ~shadow:(Scenario.shadow spec) o in
      if v.problems = [] then
        say "%s cross-check: served fleet and in-process replay agree (%s)\n"
          label v.digest
      else List.iter (fail "%s cross-check: %s" label) v.problems;
      (o.metrics, v.digest)

(** Wall-clock wire soak: complete checked runs back to back until the
    budget runs out, each under a fresh derived seed — an hour of
    soaking explores an hour's worth of distinct traffic.  The net soak
    detaches every 5 rounds unless told otherwise. *)
let run_wire_soak (secs : float) : H.Host_metrics.snapshot * string =
  let mode, base, detach_every =
    if !shards > 0 then ("shard", 515_151, !detach_every)
    else ("net", 424_242, if !detach_every > 0 then !detach_every else 5)
  in
  let t0 = H.Host_metrics.now () in
  let rec go chunk =
    let result =
      run_wire
        ~seed:(Prng.derive !seed (base + chunk))
        ~detach_every
        ~label:(Printf.sprintf "%s soak chunk %d" mode chunk)
    in
    if H.Host_metrics.now () -. t0 < secs then go (chunk + 1)
    else begin
      say "%s soak: %d chunks in %.0f s\n" mode (chunk + 1)
        (H.Host_metrics.now () -. t0);
      result
    end
  in
  go 0

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  validate_flags ();
  let snap, fleet_digest =
    if !net || !shards > 0 then
      match !soak with
      | Some s -> run_wire_soak s
      | None ->
          run_wire ~seed:!seed ~detach_every:!detach_every
            ~label:
              (if !shards > 0 then Printf.sprintf "shards[%d]" !shards
               else "net")
    else
      let reg =
        match (!soak, !rollout_soak) with
        | _, Some s -> run_rollout_soak s
        | Some s, None -> run_soak s
        | None, None -> run_load ()
      in
      (H.Registry.snapshot reg, if !digest then H.Registry.digest reg else "")
  in
  print_newline ();
  print_string (H.Host_metrics.to_string snap);
  if !digest then Printf.printf "fleet digest: %s\n" fleet_digest;
  (if !rollout_soak <> None then begin
     if snap.H.Host_metrics.s_rollouts_begun = 0 then
       fail "no rollout was begun during the run";
     if
       snap.H.Host_metrics.s_rollouts_promoted
       + snap.H.Host_metrics.s_rollouts_rolled_back
       = 0
     then fail "no rollout was resolved during the run"
   end
   else if snap.H.Host_metrics.s_updates_applied = 0 then
     fail "no broadcast update was applied during the run");
  match !failures with
  | [] ->
      Printf.printf "\nOK: zero invariant violations, accounting clean, %d \
                     broadcast update(s) applied\n"
        snap.H.Host_metrics.s_updates_applied;
      exit 0
  | fs ->
      Printf.printf "\nFAILED (%d problems):\n" (List.length fs);
      List.iter (fun f -> Printf.printf "  - %s\n" f) (List.rev fs);
      exit 1
