(** Transactional staged rollouts ([lib/host/rollout]): the two
    soundness statements, byte-for-byte —

    - {b promote} ≡ one flat {!Live_host.Broadcast.update} of the same
      change set (the canary merely saw it earlier);
    - {b rollback} ≡ a fleet that never began the rollout (checkpoint
      + journal replay, {e not} a re-broadcast of the old code, which
      would reset state through the Fig. 12 fix-up);

    plus the window invariants: interleaved traffic never crosses
    epochs, and the per-cohort ingress ledgers keep the accounting
    identity separately and summed.  Both identities are checked under
    both expression engines. *)

open Helpers
module H = Live_host
module Machine = Live_core.Machine
module Prng = Live_core.Prng

let rows = 4
let width = 32
let sessions = 6

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows ~version ()))
    .Live_surface.Compile.core

type resolution = Promote | Rollback

(* ------------------------------------------------------------------ *)
(* A fleet and its scheduler                                           *)
(* ------------------------------------------------------------------ *)

type driver = { reg : H.Registry.t; sched : H.Scheduler.t }

let make_driver ~(evaluator : Machine.evaluator) (base : Live_core.Program.t) :
    driver =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      evaluator;
      cache = true;
      queue_capacity = 16;
      queue_policy = H.Backpressure.Reject;
    }
  in
  let reg = H.Registry.create ~config base in
  { reg; sched = H.Scheduler.create ~batch:4 reg }

let drain (d : driver) =
  match H.Scheduler.drain d.sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

(** One seeded traffic round: a burst per target, then a tick.  RNG
    consumption depends only on the target list, so a staged fleet and
    its control twin replaying the same seed see identical load. *)
let offer_round (d : driver) (rng : Prng.t) (targets : H.Registry.id list) :
    unit =
  List.iter
    (fun id ->
      for _ = 1 to Prng.int rng 3 do
        let ev =
          if Prng.int rng 8 = 0 then H.Registry.Back
          else
            H.Registry.Tap
              { x = Prng.int rng width; y = Prng.int rng (rows + 3) }
        in
        ignore (H.Registry.offer d.reg id ev)
      done)
    targets;
  ignore (H.Scheduler.tick d.sched)

let ok_rollout what = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" what (Machine.error_to_string e)

(* ------------------------------------------------------------------ *)
(* The staged scenario and its control twin                            *)
(* ------------------------------------------------------------------ *)

(** Run the full rollout lifecycle under load and return the final
    fleet digest plus the cohort it picked.  Window traffic goes to
    the canaries only when promoting (the shadow cohort must end
    having seen exactly what a one-shot broadcast fleet saw) and to
    everyone when rolling back (replay must cover the whole window). *)
let run_staged ~evaluator ~(resolution : resolution) ~(seed : int) () :
    string * H.Registry.id list =
  let d = make_driver ~evaluator (app 0) in
  let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg sessions) in
  let all = H.Registry.ids d.reg in
  let rng = Prng.create (Prng.derive seed 1) in
  for _ = 1 to 3 do
    offer_round d rng all
  done;
  let r =
    ok_rollout "begin_" (H.Rollout.begin_ ~fraction:0.34 ~seed d.reg (app 1))
  in
  let canary = H.Rollout.canary_ids r in
  Alcotest.(check int) "ceil(0.34 * 6) canaries" 3 (List.length canary);
  let window =
    match resolution with Promote -> canary | Rollback -> all
  in
  (* traffic against the Staged (not yet canaried) window *)
  offer_round d rng window;
  let _ = H.Rollout.canary r in
  (* interleaved traffic, with the fleet split across two epochs *)
  for _ = 1 to 2 do
    offer_round d rng window
  done;
  (* prop: traffic never crosses epochs — every session is pinned to
     exactly its cohort's epoch and runs that epoch's code *)
  Alcotest.(check (list (pair int string)))
    "no session crosses epochs" []
    (H.Registry.check_epochs d.reg);
  List.iter
    (fun id ->
      let expect =
        if List.mem id canary then H.Rollout.target_epoch r
        else H.Rollout.base_epoch r
      in
      Alcotest.(check (option int))
        (Printf.sprintf "session %d pinned to its cohort's epoch" id)
        (Some expect)
        (H.Registry.session_epoch d.reg id))
    all;
  (* prop: the side-by-side health check holds mid-window *)
  let h = H.Rollout.observe r in
  if not (H.Rollout.healthy h) then
    Alcotest.failf "unhealthy mid-window: %s" (H.Rollout.summary r);
  (* prop: cohort ledgers sum exactly to the fleet's ingress total *)
  let snap = H.Registry.snapshot d.reg in
  Alcotest.(check int)
    "canary_in + shadow_in = fleet_in" snap.H.Host_metrics.s_events_in
    (h.H.Rollout.canary_accounting.H.Registry.ca_in
    + h.H.Rollout.shadow_accounting.H.Registry.ca_in);
  (* a flat broadcast is refused while the window is open *)
  (match H.Broadcast.update d.reg (app 2) with
  | Error (Machine.Not_enabled _) -> ()
  | Ok _ -> Alcotest.fail "flat broadcast during an open rollout accepted"
  | Error e ->
      Alcotest.failf "unexpected refusal: %s" (Machine.error_to_string e));
  (match resolution with
  | Promote ->
      let _ = H.Rollout.promote r in
      Alcotest.(check int)
        "target epoch installed"
        (H.Rollout.target_epoch r)
        (H.Registry.current_epoch d.reg)
  | Rollback -> (
      match H.Rollout.rollback r with
      | [] -> ()
      | (id, e) :: _ ->
          Alcotest.failf "replay error on session %d: %s" id
            (Machine.error_to_string e)));
  Alcotest.(check bool) "window closed" false (H.Registry.rollout_open d.reg);
  Alcotest.(check int)
    "one live epoch" 1
    (List.length (H.Registry.live_epochs d.reg));
  Alcotest.(check (list (pair int string)))
    "epochs consistent after resolution" []
    (H.Registry.check_epochs d.reg);
  for _ = 1 to 2 do
    offer_round d rng all
  done;
  drain d;
  (H.Registry.digest d.reg, canary)

(** The control twin: identical fleet, identical seeded load, no
    rollout machinery at all — a promoted transaction is one flat
    broadcast at the canary point, a rolled-back one is nothing. *)
let run_control ~evaluator ~(resolution : resolution) ~(seed : int)
    ~(canary : H.Registry.id list) () : string =
  let d = make_driver ~evaluator (app 0) in
  let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg sessions) in
  let all = H.Registry.ids d.reg in
  let rng = Prng.create (Prng.derive seed 1) in
  for _ = 1 to 3 do
    offer_round d rng all
  done;
  (* begin_ point: nothing happens in the control *)
  let window =
    match resolution with Promote -> canary | Rollback -> all
  in
  offer_round d rng window;
  (* canary point: the one-shot broadcast, or nothing at all *)
  (match resolution with
  | Promote -> (
      match H.Broadcast.update d.reg (app 1) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "broadcast: %s" (Machine.error_to_string e))
  | Rollback -> ());
  for _ = 1 to 2 do
    offer_round d rng window
  done;
  (* resolve point: nothing *)
  for _ = 1 to 2 do
    offer_round d rng all
  done;
  drain d;
  H.Registry.digest d.reg

(* ------------------------------------------------------------------ *)
(* Properties (a) and (b): the two byte-identities                     *)
(* ------------------------------------------------------------------ *)

let prop_promote_equals_broadcast =
  qcheck ~count:8
    "promote ≡ one flat broadcast of the same change set (fleet digest)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let dg, canary =
        run_staged ~evaluator:Machine.Compiled ~resolution:Promote ~seed ()
      in
      let dc =
        run_control ~evaluator:Machine.Compiled ~resolution:Promote ~seed
          ~canary ()
      in
      String.equal dg dc
      || QCheck2.Test.fail_reportf "promote digest diverges (seed %d)" seed)

let prop_rollback_equals_never_rolled_out =
  qcheck ~count:8
    "rollback ≡ a fleet that never began the rollout (fleet digest)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let dg, canary =
        run_staged ~evaluator:Machine.Compiled ~resolution:Rollback ~seed ()
      in
      let dc =
        run_control ~evaluator:Machine.Compiled ~resolution:Rollback ~seed
          ~canary ()
      in
      String.equal dg dc
      || QCheck2.Test.fail_reportf "rollback digest diverges (seed %d)" seed)

(* ------------------------------------------------------------------ *)
(* Property (c): epoch isolation under varying cohort fractions        *)
(* ------------------------------------------------------------------ *)

let prop_traffic_never_crosses_epochs =
  qcheck ~count:10
    "interleaved traffic never crosses epochs, at any cohort fraction"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, f3) ->
      let fraction = [| 0.2; 0.51; 0.9 |].(f3) in
      let d = make_driver ~evaluator:Machine.Compiled (app 0) in
      let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg sessions) in
      let all = H.Registry.ids d.reg in
      let rng = Prng.create (Prng.derive seed 2) in
      let r =
        ok_rollout "begin_"
          (H.Rollout.begin_ ~fraction ~seed d.reg (app 1))
      in
      let _ = H.Rollout.canary r in
      let ok = ref true in
      for _ = 1 to 4 do
        offer_round d rng all;
        if H.Registry.check_epochs d.reg <> [] then ok := false
      done;
      let _ = H.Rollout.rollback r in
      (!ok && H.Registry.check_epochs d.reg = [])
      || QCheck2.Test.fail_reportf
           "epoch crossing at fraction %.2f (seed %d)" fraction seed)

(* ------------------------------------------------------------------ *)
(* Property (d): cohort accounting under a lossy ingress               *)
(* ------------------------------------------------------------------ *)

let prop_cohort_accounting_identity =
  qcheck ~count:10
    "cohort ledgers: identity per cohort and summed, drops included"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      (* tiny drop-oldest queues, bursty offers, sparse ticks: drops
         and evictions must stay attributed to the right cohort *)
      let config =
        {
          H.Registry.default_config with
          H.Registry.width;
          queue_capacity = 2;
          queue_policy = H.Backpressure.Drop_oldest;
        }
      in
      let reg = H.Registry.create ~config (app 0) in
      let _ = ok_machine "spawn" (H.Registry.spawn_many reg sessions) in
      let sched = H.Scheduler.create ~batch:2 reg in
      let all = H.Registry.ids reg in
      let rng = Prng.create (Prng.derive seed 3) in
      let r =
        ok_rollout "begin_"
          (H.Rollout.begin_ ~fraction:0.5 ~seed reg (app 1))
      in
      let _ = H.Rollout.canary r in
      let check_point () =
        let h = H.Rollout.observe r in
        let ca = h.H.Rollout.canary_accounting in
        let sa = h.H.Rollout.shadow_accounting in
        let snap = H.Registry.snapshot reg in
        H.Registry.cohort_accounting_ok ca
        && H.Registry.cohort_accounting_ok sa
        && ca.H.Registry.ca_in + sa.H.Registry.ca_in
           = snap.H.Host_metrics.s_events_in
        && ca.H.Registry.ca_dropped + sa.H.Registry.ca_dropped
           = snap.H.Host_metrics.s_events_dropped
        && ca.H.Registry.ca_pending + sa.H.Registry.ca_pending
           = H.Registry.total_pending reg
      in
      let ok = ref true in
      for round = 1 to 6 do
        List.iter
          (fun id ->
            for _ = 1 to 2 + Prng.int rng 3 do
              ignore
                (H.Registry.offer reg id
                   (H.Registry.Tap
                      { x = Prng.int rng width; y = Prng.int rng (rows + 3) }))
            done)
          all;
        if round mod 2 = 0 then ignore (H.Scheduler.tick sched);
        if not (check_point ()) then ok := false
      done;
      let _ = H.Rollout.rollback r in
      (match H.Scheduler.drain sched with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (!ok && check_point ())
      || QCheck2.Test.fail_reportf
           "cohort accounting identity broke (seed %d)" seed)

(* ------------------------------------------------------------------ *)
(* The evaluator matrix (the acceptance digest check)                  *)
(* ------------------------------------------------------------------ *)

let test_digest_matrix () =
  let seed = 4242 in
  List.iter
    (fun resolution ->
      let run evaluator =
        let dg, canary = run_staged ~evaluator ~resolution ~seed () in
        let dc = run_control ~evaluator ~resolution ~seed ~canary () in
        Alcotest.(check string) "staged ≡ control" dc dg;
        dg
      in
      Alcotest.(check string)
        "compiled digests like subst" (run Machine.Subst)
        (run Machine.Compiled))
    [ Promote; Rollback ]

(* ------------------------------------------------------------------ *)
(* Lifecycle guards, metrics, the transaction edit class               *)
(* ------------------------------------------------------------------ *)

let test_lifecycle_guards_and_metrics () =
  let d = make_driver ~evaluator:Machine.Compiled (app 0) in
  let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg 3) in
  let m = H.Registry.metrics d.reg in
  let r = ok_rollout "begin_" (H.Rollout.begin_ ~seed:5 d.reg (app 1)) in
  Alcotest.(check int) "begun counted" 1 m.H.Host_metrics.rollouts_begun;
  Alcotest.(check int)
    "cohort size recorded" 1 m.H.Host_metrics.canary_sessions_last;
  (match H.Rollout.begin_ ~seed:5 d.reg (app 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a second begin_ must be refused");
  (match H.Rollout.promote r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "promote from Staged must be refused");
  (match H.Broadcast.update d.reg (app 2) with
  | Error (Machine.Not_enabled _) -> ()
  | _ -> Alcotest.fail "a broadcast during an open rollout must be refused");
  Alcotest.(check int)
    "the refusal is counted" 1 m.H.Host_metrics.updates_rejected;
  (* abandoning a never-canaried transaction is a pure close *)
  (match H.Rollout.rollback r with
  | [] -> ()
  | _ -> Alcotest.fail "abort from Staged must be a pure close");
  Alcotest.(check int) "rollback counted" 1 m.H.Host_metrics.rollouts_rolled_back;
  (match H.Rollout.rollback r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "resolving twice must be refused");
  (* the full promote cycle re-enables flat broadcasts *)
  let r2 = ok_rollout "begin_ 2" (H.Rollout.begin_ ~seed:6 d.reg (app 1)) in
  let _ = H.Rollout.canary r2 in
  let _ = H.Rollout.promote r2 in
  Alcotest.(check int) "promote counted" 1 m.H.Host_metrics.rollouts_promoted;
  (match H.Broadcast.update d.reg (app 2) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "broadcast after promote: %s" (Machine.error_to_string e));
  let s = H.Registry.snapshot d.reg in
  check_contains "snapshot prints the rollout counters"
    (H.Host_metrics.to_string s) "rollouts"

(* A session spawned while a transaction is open boots on the base
   epoch; the commit migrates every session not yet on the target, so
   the late one ends exactly like a session that was already running
   when a flat broadcast landed. *)
let test_spawn_mid_transaction () =
  let observe d id =
    H.Registry.observe_session (Option.get (H.Registry.session d.reg id))
  in
  let control =
    let d = make_driver ~evaluator:Machine.Compiled (app 0) in
    let id = ok_machine "spawn" (H.Registry.spawn d.reg) in
    ignore (ok_rollout "broadcast" (H.Broadcast.update d.reg (app 1)));
    observe d id
  in
  let check what d late =
    Alcotest.(check (list (pair int string)))
      (what ^ ": epochs consistent") []
      (H.Registry.check_epochs d.reg);
    Alcotest.(check string)
      (what ^ ": the late session matches a flat broadcast's")
      control (observe d late)
  in
  (* the flat transaction: prepare, spawn, commit *)
  let d = make_driver ~evaluator:Machine.Compiled (app 0) in
  let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg 2) in
  let x = ok_rollout "prepare" (H.Broadcast.prepare d.reg (app 1)) in
  let late = ok_machine "spawn mid-transaction" (H.Registry.spawn d.reg) in
  let report = H.Broadcast.commit x in
  Alcotest.(check (list int))
    "the commit migrates every session, the late one too"
    (H.Registry.ids d.reg)
    (List.map (fun o -> o.H.Broadcast.id) report.H.Broadcast.outcomes);
  check "broadcast" d late;
  (* the staged one: the spawn lands between canary and promote *)
  let d = make_driver ~evaluator:Machine.Compiled (app 0) in
  let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg 4) in
  let r =
    ok_rollout "begin_" (H.Rollout.begin_ ~fraction:0.5 ~seed:3 d.reg (app 1))
  in
  let _ = H.Rollout.canary r in
  let late = ok_machine "spawn mid-window" (H.Registry.spawn d.reg) in
  Alcotest.(check (option int))
    "the late session boots on the base epoch"
    (Some (H.Rollout.base_epoch r))
    (H.Registry.session_epoch d.reg late);
  let migrated = H.Rollout.promote r in
  Alcotest.(check bool) "promote migrates the late session" true
    (List.exists (fun o -> o.H.Broadcast.id = late) migrated);
  check "rollout" d late

let test_compose_folds_in_order () =
  let p0 = app 0 and p1 = app 1 and p2 = app 2 in
  let got =
    H.Rollout.compose ~base:p0
      [
        (fun _ -> p1);
        (fun p ->
          Alcotest.(check bool) "second edit sees the first" true (p == p1);
          p2);
      ]
  in
  Alcotest.(check bool) "the composed change set is the last edit" true
    (got == p2)

let test_transaction_edit_class () =
  (* a Mutate.transaction change set (2-4 stacked edits) staged and
     promoted as one rollout, against the real surface pipeline *)
  let rng = Prng.create 7 in
  let base_src = Live_workloads.Mortgage.source ~listings:3 () in
  match Live_conformance.Mutate.transaction rng base_src with
  | None -> Alcotest.fail "no compiling transaction mutant found"
  | Some src ->
      let base = (ok_compile base_src).Live_surface.Compile.core in
      let target = (ok_compile src).Live_surface.Compile.core in
      let d = make_driver ~evaluator:Machine.Compiled base in
      let _ = ok_machine "spawn" (H.Registry.spawn_many d.reg 4) in
      let r = ok_rollout "begin_" (H.Rollout.begin_ ~fraction:0.5 ~seed:9 d.reg target) in
      check_contains "the change set's dirty definitions are reported"
        (H.Rollout.summary r) "touches [";
      let _ = H.Rollout.canary r in
      let h = H.Rollout.observe r in
      if not (H.Rollout.healthy h) then
        Alcotest.failf "unhealthy: %s" (H.Rollout.summary r);
      let _ = H.Rollout.promote r in
      Alcotest.(check (list (pair int string)))
        "fleet-wide on the transaction target" []
        (H.Registry.check_epochs d.reg)

let test_oracle_covers_host_txn () =
  Alcotest.(check bool) "host-txn is differentially fuzzed" true
    (List.mem "host-txn" Live_conformance.Oracle.all_configs)

let suite =
  [
    prop_promote_equals_broadcast;
    prop_rollback_equals_never_rolled_out;
    prop_traffic_never_crosses_epochs;
    prop_cohort_accounting_identity;
    slow_case
      "promote ≡ broadcast and rollback ≡ no-op across {subst,compiled}"
      test_digest_matrix;
    case "lifecycle guards and rollout metrics"
      test_lifecycle_guards_and_metrics;
    case "a session spawned mid-transaction is migrated at commit"
      test_spawn_mid_transaction;
    case "compose folds edits first-edit-first" test_compose_folds_in_order;
    case "a Mutate.transaction change set rides one rollout"
      test_transaction_edit_class;
    case "host-txn rides the differential fuzzer" test_oracle_covers_host_txn;
  ]
