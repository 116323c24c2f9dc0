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
    host_bench --jobs 4 --digest               # the parallel pool
    host_bench --evaluator subst               # the substitution engine
    host_bench --net --conns 25                # over real Unix sockets
    host_bench --net --soak 60 --detach-every 5  # the net soak job
    v}

    Determinism contract: for a fixed [--seed], the final fleet state
    is a pure function of the replayed trace — [--digest] prints the
    same MD5 for every [--jobs] value (see [Live_host.Parallel]) and
    for both [--evaluator] engines (see [Live_core.Compile_eval]).
    [--soak] enforces the latter directly: it drives a lockstep shadow
    fleet under the {e other} evaluator over the same trace and fails
    unless the two digests agree. *)

module H = Live_host
module Session = Live_runtime.Session
module Prng = Live_conformance.Prng

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
  --jobs J            worker domains (default 1 = sequential scheduler;
                      J > 1 executes ticks on a Domain pool).  The run
                      is deterministic in --seed: per-session final
                      state is byte-identical for every J, only
                      wall-clock varies.
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
                      determinism contract: equal across --jobs values
                      and across --evaluator engines)
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
                      in-process fleet and fails unless the two
                      digests agree (transport invariance).  With
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
  --fork              under --shards: fork each shard server as a real
                      child process running its own select loop, so
                      shards execute on separate cores.  The director,
                      the client and the digest cross-check are
                      unchanged — transport invariance must hold
                      across process boundaries too
  --detach-every K    under --net: detach one session (rotating) to a
                      client-held snapshot and resume it every K
                      rounds (default 0 = never; the net soak
                      defaults to 5)
  --shards N          drive the fleet through an in-process shard
                      director fronting N shard servers over real
                      Unix-domain sockets: fleet-wide UPDATEs run as
                      two-phase commits, one mid-run rebalance
                      migrates ~10%% of the fleet between shards, and
                      the directed fleet's digest is cross-checked
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
let jobs = ref 1
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
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        if !jobs < 1 then begin
          prerr_endline "--jobs must be >= 1";
          usage ()
        end;
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
  if !net && !rollout_soak <> None then
    err "--net does not support --rollout-soak";
  if !net && !jobs <> 1 then
    err "--net drives the sequential scheduler; drop --jobs";
  if !shards < 0 then err "--shards must be >= 1";
  if !shards > 0 && !net then
    err "--shards already drives the fleet over the wire; drop --net";
  if !shards > 0 && !rollout_soak <> None then
    err "--shards does not support --rollout-soak";
  if !shards > 0 && !jobs <> 1 then
    err "--shards drives the sequential scheduler per shard; drop --jobs";
  if !shards > 0 && !detach_every <> 0 then
    err "--shards digest-checks by global id; drop --detach-every";
  if !shards > 0 && !edit_size <> 0 then
    err "--shards broadcasts whole-program versions; drop --edit-size";
  if (not !net) && !shards = 0 && !conns <> 0 then
    err "--conns requires --net or --shards";
  if !window < 1 then err "--window must be >= 1";
  if !window > 1 && (not !net) && !shards = 0 then
    err "--window requires --net or --shards";
  if !fork && !shards = 0 then err "--fork requires --shards";
  if (not !net) && !detach_every <> 0 then err "--detach-every requires --net";
  if !conns < 0 then err "--conns must be >= 1";
  if !conns > 256 then err "--conns must be <= 256 (select fd budget)";
  if !detach_every < 0 then err "--detach-every must be >= 0";
  if (!net || !shards > 0) && !conns = 0 then conns := min !sessions 16;
  if (!net || !shards > 0) && !conns > !sessions then conns := !sessions;
  if !jobs > Domain.recommended_domain_count () then
    Printf.eprintf
      "warning: --jobs %d exceeds the recommended domain count (%d); expect \
       oversubscription, not speedup\n\
       %!"
      !jobs
      (Domain.recommended_domain_count ())

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

(** The execution driver: [--jobs 1] replays through the sequential
    {!Live_host.Scheduler}, [--jobs J>1] through the
    {!Live_host.Parallel} domain pool.  Same trace, same final fleet
    state either way — that is the pool's determinism contract. *)
type driver = {
  dr_tick : unit -> unit;
  dr_drain : unit -> (int, string) result;
  dr_update :
    Live_core.Program.t ->
    (H.Broadcast.report, Live_core.Machine.error) result;
  dr_snapshot : unit -> H.Host_metrics.snapshot;
  dr_excl : (unit -> unit) -> unit;
      (** stop-the-world section for rollout stages (no-op when
          sequential, {!Live_host.Parallel.exclusive} on the pool) *)
  dr_shutdown : unit -> unit;
}

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

let broadcast ?(silent = false) (dr : driver) (version : int)
    (code : Live_core.Program.t) =
  match dr.dr_update code with
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

let make_fleet ?ev ?j ?tc () : H.Registry.t * driver =
  let ev = match ev with Some e -> e | None -> !evaluator in
  let jobs = match j with Some j -> j | None -> !jobs in
  let tc = match tc with Some t -> t | None -> !typecheck in
  let cfg =
    {
      H.Registry.default_config with
      H.Registry.width = !width;
      cache = !cache;
      queue_capacity = !queue_capacity;
      queue_policy = !queue_policy;
      admission_limit = !admission;
      evaluator = ev;
    }
  in
  let reg = H.Registry.create ~config:cfg (compile_version 0) in
  (match H.Registry.spawn_many reg !sessions with
  | Ok _ -> ()
  | Error e ->
      Printf.eprintf "spawn failed: %s\n" (Live_core.Machine.error_to_string e);
      exit 1);
  if jobs = 1 then
    let sched = H.Scheduler.create ~policy:!policy ~batch:!batch reg in
    ( reg,
      {
        dr_tick = (fun () -> ignore (H.Scheduler.tick sched));
        dr_drain = (fun () -> H.Scheduler.drain sched);
        dr_update = (fun code -> H.Broadcast.update ~typecheck:tc reg code);
        dr_snapshot = (fun () -> H.Registry.snapshot reg);
        dr_excl = (fun f -> f ());
        dr_shutdown = ignore;
      } )
  else begin
    (* the pool's shard assignment is always hottest-first LPT *)
    say "pool: %d worker domains\n" jobs;
    let pool = H.Parallel.create ~jobs ~batch:!batch reg in
    ( reg,
      {
        dr_tick = (fun () -> ignore (H.Parallel.tick pool));
        dr_drain = (fun () -> H.Parallel.drain pool);
        dr_update = (fun code -> H.Parallel.update ~typecheck:tc pool code);
        dr_snapshot = (fun () -> H.Parallel.snapshot pool);
        dr_excl = (fun f -> H.Parallel.exclusive pool f);
        dr_shutdown =
          (fun () ->
            (match H.Parallel.barrier_violations pool with
            | 0 -> ()
            | v -> fail "%d broadcast barrier violation(s)" v);
            H.Parallel.shutdown pool);
      } )
  end

(** Per-round burst for one session: 1-3 events, so pending batches
    build up and the scheduler's render coalescing has work to do. *)
let offer_burst (reg : H.Registry.t) (rng : Prng.t) (id : H.Registry.id) =
  for _ = 0 to Prng.int rng 3 do
    ignore (H.Registry.offer reg id (gen_event rng))
  done

(** Seeded load run: [events] rounds; each round offers a small burst
    per session then ticks once, and the configured number of
    broadcasts fire at evenly spaced mid-stream rounds. *)
let run_load () : H.Registry.t * driver =
  let t0 = Unix.gettimeofday () in
  let reg, dr = make_fleet () in
  (* under --typecheck both, a lockstep shadow fleet replays the whole
     run with scratch-mode broadcasts on the sequential scheduler; the
     final MD5 digests must agree — end-to-end evidence that the
     incremental pipeline (typecheck reuse, targeted fix-up, cache
     retargeting) is observationally invisible *)
  let shadow =
    if !typecheck = H.Broadcast.Cross_check then
      Some (make_fleet ~j:1 ~tc:H.Broadcast.Scratch ())
    else None
  in
  say "fleet: %d sessions up in %.2f s%s\n" (H.Registry.size reg)
    (Unix.gettimeofday () -. t0)
    (if shadow <> None then " (+ scratch-typecheck shadow fleet)" else "");
  let ids = Array.of_list (H.Registry.ids reg) in
  let rngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let srngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let update_rounds =
    (* mid-stream: never round 0, never after the last round *)
    List.init !updates (fun u -> max 1 ((!events * (u + 1)) / (!updates + 1)))
  in
  let version = ref 0 in
  let t1 = Unix.gettimeofday () in
  for round = 0 to !events - 1 do
    Array.iteri (fun i id -> offer_burst reg rngs.(i) id) ids;
    dr.dr_tick ();
    Option.iter
      (fun (sreg, sdr) ->
        Array.iteri (fun i id -> offer_burst sreg srngs.(i) id) ids;
        sdr.dr_tick ())
      shadow;
    if List.mem round update_rounds then begin
      incr version;
      broadcast dr !version (next_edit reg !version);
      Option.iter
        (fun (sreg, sdr) ->
          broadcast ~silent:true sdr !version (next_edit sreg !version))
        shadow
    end
  done;
  (match dr.dr_drain () with
  | Ok _ -> ()
  | Error m -> fail "drain: %s" m);
  let dt = Unix.gettimeofday () -. t1 in
  check_fleet reg "end of run";
  check_accounting (dr.dr_snapshot ()) "end of run";
  Option.iter
    (fun (sreg, sdr) ->
      (match sdr.dr_drain () with
      | Ok _ -> ()
      | Error m -> fail "shadow drain: %s" m);
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
          d sd;
      sdr.dr_shutdown ())
    shadow;
  let s = dr.dr_snapshot () in
  say "load: %d events in %.2f s (%.0f events/s)\n"
    s.H.Host_metrics.s_events_processed dt
    (float_of_int s.H.Host_metrics.s_events_processed /. dt);
  (reg, dr)

(** Wall-clock soak: offer-and-tick continuously, broadcast roughly
    once a second, re-check the fleet invariants and the accounting
    identity at every broadcast.

    The soak also exercises the evaluator-equivalence contract: a
    {e shadow} fleet running the other execution engine (compiled vs
    substitution) replays the exact same event trace in lockstep — same
    per-session seeds, same bursts, same broadcast rounds — on the
    sequential scheduler, and the two fleets' MD5 state digests must
    agree at the end.  A single diverging value anywhere in any
    session's store, page stack, or display fails the run. *)
let run_soak (secs : float) : H.Registry.t * driver =
  let reg, dr = make_fleet () in
  let shadow_ev = other_evaluator !evaluator in
  let sreg, sdr = make_fleet ~ev:shadow_ev ~j:1 () in
  say
    "soak: %d sessions for %.0f s, ~1 broadcast/s; lockstep %s shadow fleet \
     for the digest cross-check\n"
    (H.Registry.size reg) secs (evaluator_name shadow_ev);
  let ids = Array.of_list (H.Registry.ids reg) in
  let rngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let srngs = Array.map (fun id -> Prng.create (Prng.derive !seed id)) ids in
  let t0 = Unix.gettimeofday () in
  let last_update = ref t0 in
  let version = ref 0 in
  while Unix.gettimeofday () -. t0 < secs do
    Array.iteri (fun i id -> offer_burst reg rngs.(i) id) ids;
    Array.iteri (fun i id -> offer_burst sreg srngs.(i) id) ids;
    dr.dr_tick ();
    sdr.dr_tick ();
    let now = Unix.gettimeofday () in
    if now -. !last_update >= 1.0 then begin
      last_update := now;
      incr version;
      broadcast dr !version (next_edit reg !version);
      broadcast ~silent:true sdr !version (next_edit sreg !version);
      check_fleet reg (Printf.sprintf "soak t=%.0fs" (now -. t0));
      check_accounting (dr.dr_snapshot ())
        (Printf.sprintf "soak t=%.0fs" (now -. t0))
    end
  done;
  (match dr.dr_drain () with
  | Ok _ -> ()
  | Error m -> fail "drain: %s" m);
  (match sdr.dr_drain () with
  | Ok _ -> ()
  | Error m -> fail "shadow drain: %s" m);
  check_fleet reg "end of soak";
  check_fleet sreg "end of soak (shadow)";
  check_accounting (dr.dr_snapshot ()) "end of soak";
  let d = H.Registry.digest reg and sd = H.Registry.digest sreg in
  if String.equal d sd then
    say "soak cross-check: %s and %s fleets digest-identical (%s)\n"
      (evaluator_name !evaluator) (evaluator_name shadow_ev) d
  else
    fail
      "soak cross-check: %s fleet digest %s <> %s fleet digest %s — the \
       evaluators diverged"
      (evaluator_name !evaluator) d (evaluator_name shadow_ev) sd;
  sdr.dr_shutdown ();
  (reg, dr)

(** Wall-clock staged-rollout soak: continuous fleet-wide traffic, and
    every ~5 s a full rollout lifecycle — stage a change set as a
    second epoch, canary it on a deterministic cohort under live
    window traffic, observe both cohorts, then resolve with a seeded
    coin flip.

    The equivalence contract rides a lockstep {e flat} shadow fleet on
    the sequential scheduler: when the coin says promote, the shadow
    takes the same change set as one plain broadcast at the canary
    point; when it says rollback, the shadow never sees the edit at
    all.  Window traffic is routed so both fleets provably serve the
    same trace under the same code (canary cohort only while a promote
    is pending; everyone during a rollback window, which the journal
    replay then erases).  At the end the two MD5 digests must agree —
    promote ≡ one-shot broadcast, rollback ≡ never rolled out, under
    sustained load.  Any divergence, invariant violation, cohort
    accounting mismatch, or epoch crossing is a nonzero exit. *)
let run_rollout_soak (secs : float) : H.Registry.t * driver =
  let reg, dr = make_fleet () in
  let sreg, sdr = make_fleet ~j:1 () in
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
    dr.dr_tick ();
    sdr.dr_tick ()
  in
  let all = Array.to_list ids in
  let crng = Prng.create (Prng.derive !seed 999_983) in
  let version = ref 0 in
  let promoted = ref 0 and rolled_back = ref 0 in
  let t0 = Unix.gettimeofday () in
  let last_rollout = ref t0 in
  while Unix.gettimeofday () -. t0 < secs do
    round all;
    let now = Unix.gettimeofday () in
    if now -. !last_rollout >= 5.0 then begin
      last_rollout := now;
      incr version;
      let promote = Prng.bool crng in
      let target = next_edit reg !version in
      let ro = ref None in
      dr.dr_excl (fun () ->
          match
            H.Rollout.begin_ ~typecheck:!typecheck ~fraction:0.25
              ~seed:(Prng.derive !seed (7_000 + !version))
              reg target
          with
          | Ok r -> ro := Some r
          | Error e ->
              fail "rollout v%d refused: %s" !version
                (Live_core.Machine.error_to_string e));
      match !ro with
      | None -> ()
      | Some r ->
          let window = if promote then H.Rollout.canary_ids r else all in
          for _ = 1 to 3 do
            round window
          done;
          dr.dr_excl (fun () ->
              List.iter
                (fun o ->
                  match o.H.Broadcast.outcome with
                  | Ok _ -> ()
                  | Error e ->
                      fail "rollout v%d: canary %d failed: %s" !version
                        o.H.Broadcast.id
                        (Live_core.Machine.error_to_string e))
                (H.Rollout.canary r));
          if promote then
            broadcast ~silent:true sdr !version (next_edit sreg !version);
          for _ = 1 to 3 do
            round window
          done;
          let h = H.Rollout.observe r in
          if not (H.Rollout.healthy h) then
            fail "rollout v%d unhealthy mid-canary: %s" !version
              (H.Rollout.summary r);
          dr.dr_excl (fun () ->
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
                    fail "rollout v%d: rollback replay of %d failed: %s"
                      !version id
                      (Live_core.Machine.error_to_string e))
                  (H.Rollout.rollback r)
              end);
          (match H.Registry.check_epochs reg with
          | [] -> ()
          | vs ->
              List.iter
                (fun (id, m) ->
                  fail "rollout v%d: session %d crosses epochs: %s" !version
                    id m)
                vs);
          check_fleet reg (Printf.sprintf "after rollout v%d" !version);
          check_accounting (dr.dr_snapshot ())
            (Printf.sprintf "after rollout v%d" !version);
          say "  rollout v%d %s (t=%.0fs)\n" !version
            (if promote then "promoted" else "rolled back")
            (now -. t0)
    end
  done;
  (match dr.dr_drain () with
  | Ok _ -> ()
  | Error m -> fail "drain: %s" m);
  (match sdr.dr_drain () with
  | Ok _ -> ()
  | Error m -> fail "shadow drain: %s" m);
  check_fleet reg "end of rollout soak";
  check_fleet sreg "end of rollout soak (flat shadow)";
  check_accounting (dr.dr_snapshot ()) "end of rollout soak";
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
  sdr.dr_shutdown ();
  (reg, dr)

(* ------------------------------------------------------------------ *)
(* The networked fleet (lib/net)                                       *)
(* ------------------------------------------------------------------ *)

let to_wire_event : H.Registry.uevent -> Live_net.Wire.event = function
  | H.Registry.Tap { x; y } -> Live_net.Wire.Ev_tap { x; y }
  | H.Registry.Back -> Live_net.Wire.Ev_back

let net_config () =
  {
    H.Registry.default_config with
    H.Registry.width = !width;
    cache = !cache;
    queue_capacity = !queue_capacity;
    queue_policy = !queue_policy;
    admission_limit = !admission;
    evaluator = !evaluator;
  }

(** The fleet digest in {e slot} order rather than id order: resumed
    sessions come back under fresh ids, so the socket fleet and the
    direct shadow fleet can only be compared by what each slot
    observes, not by the ids it happens to hold. *)
let slot_digest (reg : H.Registry.t) (ids : int list) : string =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i id ->
      Buffer.add_string buf (Printf.sprintf "== slot %d ==\n" i);
      match H.Registry.session reg id with
      | None -> Buffer.add_string buf "<missing>\n"
      | Some s -> Buffer.add_string buf (H.Registry.observe_session s))
    ids;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(** One complete networked run: an in-process {!Live_net.Server} on a
    real Unix-domain socket, the lockstep {!Live_net.Client} driving
    one seeded event per session per round (with optional periodic
    detach/resume), broadcasts at the same evenly spaced rounds as the
    direct load mode — then the {e transport invariance} check: a
    direct in-process fleet replays the identical seeded trace and the
    two fleets' slot-order digests must agree.  The client's
    delta-reconstructed frames are also checked byte-for-byte against
    the server's screenshots, so the damage protocol itself is
    verified end to end on every run. *)
let run_net_rounds ~(seed : int) ~(rounds : int) ~(detach_every : int)
    ~(label : string) : H.Registry.t * driver =
  let module Server = Live_net.Server in
  let module Client = Live_net.Client in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "itsalive-net-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create ~config:(net_config ()) ~batch:!batch ~socket
      (compile_version 0)
  in
  let reg = Server.registry srv in
  let pump () = ignore (Server.step ~timeout:0. srv) in
  let rngs = Array.init !sessions (fun s -> Prng.create (Prng.derive seed s)) in
  let gen ~slot ~round:_ = to_wire_event (gen_event rngs.(slot)) in
  let update_rounds =
    List.init !updates (fun u -> max 1 (rounds * (u + 1) / (!updates + 1)))
  in
  let version = ref 0 in
  let on_round r =
    if List.mem r update_rounds then begin
      incr version;
      (match
         H.Broadcast.update ~typecheck:!typecheck reg (next_edit reg !version)
       with
      | Ok _ -> ()
      | Error e ->
          fail "net broadcast v%d rejected: %s" !version
            (Live_core.Machine.error_to_string e));
      Server.mark_all_dirty srv
    end
  in
  say "%s: %d sessions over %d connections, %d rounds%s%s\n" label !sessions
    !conns rounds
    (if !window > 1 then Printf.sprintf ", window %d" !window else "")
    (if detach_every > 0 then
       Printf.sprintf ", detach/resume every %d rounds" detach_every
     else "");
  let t0 = Unix.gettimeofday () in
  let result =
    Client.run ~socket ~conns:!conns ~sessions:!sessions ~rounds ~gen
      ~window:!window
      ~barrier:(fun r -> List.mem r update_rounds)
      ?detach_every:(if detach_every > 0 then Some detach_every else None)
      ~on_round ~pump ~stats:true ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  (* let the server process the goodbyes *)
  for _ = 1 to 50 do
    ignore (Server.step ~timeout:0. srv)
  done;
  (match result with
  | Error m -> fail "net client: %s" m
  | Ok r ->
      let p q = H.Host_metrics.quantile r.Client.latency q /. 1e6 in
      say "net: %d events in %.2f s (%.0f events/s end-to-end)\n"
        r.Client.events_sent dt
        (float_of_int r.Client.events_sent /. dt);
      say "net: e2e latency p50 %.3f ms  p99 %.3f ms  (%d samples, %d rejected)\n"
        (p 0.5) (p 0.99)
        (H.Host_metrics.hist_count r.Client.latency)
        r.Client.rejected;
      if r.Client.full_rows > 0 then
        say
          "net: damage deltas shipped %d rows vs %d full-repaint rows \
           (%.1f%%)\n"
          r.Client.delta_rows r.Client.full_rows
          (100.
          *. float_of_int r.Client.delta_rows
          /. float_of_int r.Client.full_rows);
      if r.Client.detaches > 0 then
        say "net: %d detaches, %d resumes (snapshots round-tripped the wire)\n"
          r.Client.detaches r.Client.resumes;
      (* the client's delta-reconstructed frames must equal the
         server's screenshots *)
      List.iteri
        (fun slot id ->
          match H.Registry.session reg id with
          | None -> fail "net: slot %d's session %d missing at end of run" slot id
          | Some s ->
              let want =
                Live_net.Wire.rows_of_text (Live_runtime.Session.screenshot s)
              in
              if want <> r.Client.frames.(slot) then
                fail
                  "net: slot %d's delta-reconstructed frame differs from the \
                   server's screenshot"
                  slot)
        r.Client.session_ids;
      (* transport invariance: the same seeded trace replayed on a
         direct in-process fleet must digest-agree, slot for slot *)
      let sreg = H.Registry.create ~config:(net_config ()) (compile_version 0) in
      (match H.Registry.spawn_many sreg !sessions with
      | Ok _ -> ()
      | Error e ->
          fail "net shadow spawn failed: %s"
            (Live_core.Machine.error_to_string e));
      let sched =
        H.Scheduler.create ~policy:H.Scheduler.Round_robin ~batch:!batch sreg
      in
      let srngs =
        Array.init !sessions (fun s -> Prng.create (Prng.derive seed s))
      in
      let sversion = ref 0 in
      for round = 0 to rounds - 1 do
        Array.iteri
          (fun s rng -> ignore (H.Registry.offer sreg s (gen_event rng)))
          srngs;
        (match H.Scheduler.drain sched with
        | Ok _ -> ()
        | Error m -> fail "net shadow drain: %s" m);
        if List.mem round update_rounds then begin
          incr sversion;
          match
            H.Broadcast.update ~typecheck:!typecheck sreg
              (next_edit sreg !sversion)
          with
          | Ok _ -> ()
          | Error e ->
              fail "net shadow broadcast v%d rejected: %s" !sversion
                (Live_core.Machine.error_to_string e)
        end
      done;
      check_fleet sreg (Printf.sprintf "%s (direct shadow)" label);
      let d = slot_digest reg r.Client.session_ids in
      let sd = slot_digest sreg (List.init !sessions Fun.id) in
      if String.equal d sd then
        say
          "net cross-check: socket fleet and direct fleet digest-identical \
           (%s)\n"
          d
      else
        fail
          "net cross-check: socket fleet digest %s <> direct fleet digest %s \
           — the wire changed behaviour"
          d sd);
  check_fleet reg (Printf.sprintf "%s: end of run" label);
  check_accounting (H.Registry.snapshot reg)
    (Printf.sprintf "%s: end of run" label);
  ( reg,
    {
      dr_tick = (fun () -> ignore (Server.step ~timeout:0. srv));
      dr_drain = (fun () -> Ok 0);
      dr_update =
        (fun code -> H.Broadcast.update ~typecheck:!typecheck reg code);
      dr_snapshot = (fun () -> H.Registry.snapshot reg);
      dr_excl = (fun f -> f ());
      dr_shutdown = (fun () -> Server.stop srv);
    } )

let run_net () : H.Registry.t * driver =
  run_net_rounds ~seed:!seed ~rounds:!events ~detach_every:!detach_every
    ~label:"net"

(** Wall-clock net soak: complete networked cycles (fresh server,
    fresh fleet, seeded traffic with periodic detach/resume,
    mid-stream broadcasts, digest cross-check against the direct
    shadow) back to back until the budget runs out.  Every chunk
    derives a fresh master seed, so an hour of soaking explores an
    hour's worth of distinct traffic, and every chunk enforces the
    full transport-invariance and accounting contract. *)
let run_net_soak (secs : float) : H.Registry.t * driver =
  let de = if !detach_every > 0 then !detach_every else 5 in
  let t0 = Unix.gettimeofday () in
  let chunk = ref 0 in
  let current = ref None in
  while !chunk = 0 || Unix.gettimeofday () -. t0 < secs do
    (match !current with Some (_, dr) -> dr.dr_shutdown () | None -> ());
    current :=
      Some
        (run_net_rounds
           ~seed:(Prng.derive !seed (424_242 + !chunk))
           ~rounds:!events ~detach_every:de
           ~label:(Printf.sprintf "net soak chunk %d" !chunk));
    incr chunk
  done;
  say "net soak: %d chunks in %.0f s\n" !chunk (Unix.gettimeofday () -. t0);
  Option.get !current

(* ------------------------------------------------------------------ *)
(* The directed multi-shard fleet (lib/net/director)                   *)
(* ------------------------------------------------------------------ *)

(** One complete sharded run: N in-process shard servers behind a
    {!Live_net.Director}, the lockstep client driving the fleet through
    the director's socket.  Broadcasts go over the wire as [Update]
    frames, so they exercise the two-phase prepare/commit across every
    shard; one mid-run [Rebalance] migrates ~10%% of the fleet between
    shards under traffic.  The check is the ISSUE's acceptance
    criterion verbatim: the directed fleet's digest (by global id) must
    be byte-identical to a direct in-process shadow fleet replaying the
    same seeded trace — sharding, the wire, two-phase UPDATE, and live
    migration must all be observationally invisible. *)
let run_sharded_rounds ~(seed : int) ~(rounds : int) ~(label : string) :
    H.Registry.t * driver =
  let module Server = Live_net.Server in
  let module Client = Live_net.Client in
  let module Director = Live_net.Director in
  let module Wire = Live_net.Wire in
  let n = !shards in
  let sockpath i =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "itsalive-shard-%d-%d.sock" (Unix.getpid ()) i)
  in
  (* --fork: each shard is a real child process running its own select
     loop on its own core — the director connects to the children's
     sockets exactly as it would to remote hosts ({!Director.create}
     retries for up to 10 s while the children bind).  Without --fork
     the shards are in-process servers co-scheduled on this thread via
     [pump_shards] (a no-op in fork mode: the children schedule
     themselves). *)
  let shard_pids, shard_srvs =
    if !fork then
      ( Array.init n (fun i ->
            (* resolve the path before forking: [sockpath] embeds the
               calling process's pid, and the director will connect to
               the parent-pid name *)
            let path = sockpath i in
            match Unix.fork () with
            | 0 ->
                let srv =
                  Server.create ~config:(net_config ()) ~batch:!batch
                    ~socket:path (compile_version 0)
                in
                Server.run ~until:(fun () -> false) srv;
                Stdlib.exit 0
            | pid -> pid),
        [||] )
    else
      ( [||],
        Array.init n (fun i ->
            Server.create ~config:(net_config ()) ~batch:!batch
              ~socket:(sockpath i) (compile_version 0)) )
  in
  let pump_shards () =
    Array.iter (fun s -> ignore (Server.step ~timeout:0. s)) shard_srvs
  in
  let dpath = sockpath 9999 in
  let dir =
    Director.create ~pump:pump_shards ~socket:dpath
      ~shards:(List.init n sockpath) ()
  in
  let pump () =
    pump_shards ();
    ignore (Director.step ~timeout:0. dir)
  in
  (* a pump-aware admin connection for the fleet-wide control frames *)
  let admin = Live_net.Conn.connect dpath in
  let admin_rpc f =
    Live_net.Conn.rpc ~pump admin (Wire.Client f) (fun () ->
        Live_net.Conn.next admin)
  in
  let rngs = Array.init !sessions (fun s -> Prng.create (Prng.derive seed s)) in
  let gen ~slot ~round:_ = to_wire_event (gen_event rngs.(slot)) in
  let update_rounds =
    List.init !updates (fun u -> max 1 (rounds * (u + 1) / (!updates + 1)))
  in
  let rebalance_round = max 1 (rounds / 2) in
  let rebalance_count = max 1 (!sessions / 10) in
  let version = ref 0 in
  let on_round r =
    if List.mem r update_rounds then begin
      incr version;
      match
        admin_rpc
          (Wire.Update
             {
               program =
                 Live_net.Snapshot.program_to_string (compile_version !version);
             })
      with
      | Wire.Ack _ -> ()
      | Wire.Error { code; msg } ->
          fail "%s: two-phase update v%d refused (%d): %s" label !version code
            msg
      | _ -> fail "%s: unexpected reply to Update" label
    end;
    if r = rebalance_round then
      match admin_rpc (Wire.Rebalance { count = rebalance_count }) with
      | Wire.Ack _ -> ()
      | Wire.Error { code; msg } ->
          fail "%s: rebalance refused (%d): %s" label code msg
      | _ -> fail "%s: unexpected reply to Rebalance" label
  in
  say "%s: %d sessions over %d shards%s (%d connections), %d rounds%s\n" label
    !sessions n
    (if !fork then " (forked processes)" else "")
    !conns rounds
    (if !window > 1 then Printf.sprintf ", window %d" !window else "");
  let t0 = Unix.gettimeofday () in
  let result =
    Client.run ~socket:dpath ~conns:!conns ~sessions:!sessions ~rounds ~gen
      ~window:!window
      ~barrier:(fun r -> List.mem r update_rounds || r = rebalance_round)
      ~on_round ~pump ~stats:true ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  for _ = 1 to 50 do
    pump ()
  done;
  (* the direct in-process shadow: same seeded trace, same broadcast
     rounds, one flat fleet *)
  let sreg = H.Registry.create ~config:(net_config ()) (compile_version 0) in
  (match H.Registry.spawn_many sreg !sessions with
  | Ok _ -> ()
  | Error e ->
      fail "shard shadow spawn failed: %s" (Live_core.Machine.error_to_string e));
  let sched =
    H.Scheduler.create ~policy:H.Scheduler.Round_robin ~batch:!batch sreg
  in
  let srngs =
    Array.init !sessions (fun s -> Prng.create (Prng.derive seed s))
  in
  let sversion = ref 0 in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun s rng -> ignore (H.Registry.offer sreg s (gen_event rng)))
      srngs;
    (match H.Scheduler.drain sched with
    | Ok _ -> ()
    | Error m -> fail "shard shadow drain: %s" m);
    if List.mem round update_rounds then begin
      incr sversion;
      match
        H.Broadcast.update ~typecheck:!typecheck sreg (compile_version !sversion)
      with
      | Ok _ -> ()
      | Error e ->
          fail "shard shadow broadcast v%d rejected: %s" !sversion
            (Live_core.Machine.error_to_string e)
    end
  done;
  (match result with
  | Error m -> fail "%s client: %s" label m
  | Ok r ->
      let p q = H.Host_metrics.quantile r.Client.latency q /. 1e6 in
      say "%s: %d events in %.2f s (%.0f events/s end-to-end)\n" label
        r.Client.events_sent dt
        (float_of_int r.Client.events_sent /. dt);
      say
        "%s: e2e latency p50 %.3f ms  p99 %.3f ms  (%d samples, %d rejected)\n"
        label (p 0.5) (p 0.99)
        (H.Host_metrics.hist_count r.Client.latency)
        r.Client.rejected);
  let ds = Director.stats dir in
  say
    "%s: updates %d committed / %d rejected; rebalance moved %d sessions (%d \
     digest checks, %d failed)\n"
    label ds.Director.updates_committed ds.Director.updates_rejected
    ds.Director.sessions_moved ds.Director.digest_checks
    ds.Director.digest_failures;
  List.iter
    (fun (ep, k) -> say "%s:   %-40s %d sessions\n" label ep k)
    ds.Director.per_shard;
  if ds.Director.digest_failures > 0 then
    fail "%s: %d rebalance digest check(s) failed" label
      ds.Director.digest_failures;
  check_fleet sreg (Printf.sprintf "%s (direct shadow)" label);
  let d = Director.fleet_digest dir in
  let sd = H.Registry.digest sreg in
  if String.equal d sd then
    say "%s cross-check: directed fleet and direct fleet digest-identical (%s)\n"
      label d
  else
    fail
      "%s cross-check: directed fleet digest %s <> direct fleet digest %s — \
       sharding changed behaviour"
      label d sd;
  let merged_snapshot () =
    if !fork then
      (* the children's registries live in other processes; ask the
         director for the fleet-merged export over the wire *)
      match admin_rpc Wire.Stats_data with
      | Wire.Metrics { text } -> (
          match H.Host_metrics.import text with
          | Ok e -> H.Host_metrics.merge_exported [ e ]
          | Error m -> failwith ("director metrics import: " ^ m))
      | Wire.Error { code; msg } ->
          failwith (Printf.sprintf "director stats: error %d: %s" code msg)
      | _ -> failwith "unexpected reply to Stats_data"
    else
      Array.to_list shard_srvs
      |> List.map (fun s ->
             match
               H.Host_metrics.import
                 (H.Registry.export_metrics (Server.registry s))
             with
             | Ok e -> e
             | Error m -> failwith ("shard metrics import: " ^ m))
      |> H.Host_metrics.merge_exported
  in
  check_accounting (merged_snapshot ()) (Printf.sprintf "%s: end of run" label);
  ( sreg,
    {
      dr_tick = pump;
      dr_drain = (fun () -> Ok 0);
      dr_update =
        (fun code -> H.Broadcast.update ~typecheck:!typecheck sreg code);
      dr_snapshot = merged_snapshot;
      dr_excl = (fun f -> f ());
      dr_shutdown =
        (fun () ->
          Live_net.Conn.close admin;
          Director.stop dir;
          Array.iter Server.stop shard_srvs;
          Array.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid))
            shard_pids;
          if !fork then
            for i = 0 to n - 1 do
              try Unix.unlink (sockpath i) with Unix.Unix_error _ -> ()
            done);
    } )

let run_sharded () : H.Registry.t * driver =
  run_sharded_rounds ~seed:!seed ~rounds:!events
    ~label:(Printf.sprintf "shards[%d]" !shards)

(** Wall-clock sharded soak: complete directed cycles (fresh shard
    servers, fresh director, seeded traffic, two-phase updates, a live
    rebalance, the digest cross-check) back to back until the budget
    runs out, each chunk under a fresh derived seed. *)
let run_sharded_soak (secs : float) : H.Registry.t * driver =
  let t0 = Unix.gettimeofday () in
  let chunk = ref 0 in
  let current = ref None in
  while !chunk = 0 || Unix.gettimeofday () -. t0 < secs do
    (match !current with Some (_, dr) -> dr.dr_shutdown () | None -> ());
    current :=
      Some
        (run_sharded_rounds
           ~seed:(Prng.derive !seed (515_151 + !chunk))
           ~rounds:!events
           ~label:(Printf.sprintf "shard soak chunk %d" !chunk));
    incr chunk
  done;
  say "shard soak: %d chunks in %.0f s\n" !chunk (Unix.gettimeofday () -. t0);
  Option.get !current

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  validate_flags ();
  let reg, dr =
    if !shards > 0 then
      match !soak with
      | Some s -> run_sharded_soak s
      | None -> run_sharded ()
    else
      match (!net, !soak, !rollout_soak) with
      | true, Some s, None -> run_net_soak s
      | true, None, None -> run_net ()
      | false, _, Some s -> run_rollout_soak s
      | false, Some s, None -> run_soak s
      | false, None, None -> run_load ()
      | true, _, Some _ ->
          (* rejected by validate_flags *)
          assert false
  in
  let snap = dr.dr_snapshot () in
  dr.dr_shutdown ();
  print_newline ();
  print_string (H.Host_metrics.to_string snap);
  if !digest then Printf.printf "fleet digest: %s\n" (H.Registry.digest reg);
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
