(** The multi-session host ([lib/host]): the fleet-wide broadcast
    UPDATE must be observably identical to updating every session
    independently (and all-or-nothing on a failed typecheck), the
    bounded ingress queues must enforce their policies with exact
    loss accounting, the batching scheduler must drain fairly and
    coalesce only repaints, its service order must be invisible in the
    fleet digest, metrics must merge exactly, and a fleet of one must
    agree with the reference machine on random traces (the oracle's
    ["host"] configuration). *)

open Helpers
module H = Live_host
module Session = Live_runtime.Session
module Prng = Live_core.Prng

let rows = 4
let width = 32

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows ~version ()))
    .Live_surface.Compile.core

(** Canonical observation of one session, à la the conformance
    oracle: store, page stack, painted pixels. *)
let obs (s : Session.t) : string =
  let st = Session.state s in
  let store =
    Live_core.Store.bindings st.Live_core.State.store
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (g, v) ->
           Printf.sprintf "%s=%s" g (Live_core.Pretty.value_to_string v))
    |> String.concat ";"
  in
  let stack =
    st.Live_core.State.stack
    |> List.map (fun (p, v) ->
           Printf.sprintf "%s(%s)" p (Live_core.Pretty.value_to_string v))
    |> String.concat ";"
  in
  store ^ "\n" ^ stack ^ "\n" ^ Session.screenshot s

(** A deterministic per-session event stream: mostly taps across the
    app (some hit, some miss), occasionally BACK. *)
let gen_events ~seed ~n (id : H.Registry.id) : H.Registry.uevent list =
  let rng = Prng.create (Prng.derive seed id) in
  List.init n (fun _ ->
      if Prng.int rng 10 = 0 then H.Registry.Back
      else
        H.Registry.Tap
          { x = Prng.int rng width; y = Prng.int rng (rows + 3) })

(** Apply one event directly to a plain session, with the scheduler's
    error semantics: a failing event is consumed, the session keeps
    running. *)
let apply_direct (s : Session.t) (ev : H.Registry.uevent) : unit =
  match ev with
  | H.Registry.Tap { x; y } -> (
      match Session.tap s ~x ~y with Ok _ | Error _ -> ())
  | H.Registry.Back -> ( match Session.back s with Ok _ | Error _ -> ())

let make_fleet ?(config = { H.Registry.default_config with H.Registry.width })
    ~sessions version : H.Registry.t * H.Registry.id list =
  let reg = H.Registry.create ~config (app version) in
  let ids = ok_machine "spawn_many" (H.Registry.spawn_many reg sessions) in
  (reg, ids)

let fleet_session reg id =
  match H.Registry.session reg id with
  | Some s -> s
  | None -> Alcotest.failf "session %d not found" id

(* -- broadcast ≡ independent per-session updates ------------------- *)

let test_broadcast_equals_independent () =
  let n = 5 in
  let reg, ids = make_fleet ~sessions:n 0 in
  let sched = H.Scheduler.create ~batch:4 reg in
  let controls =
    List.map
      (fun _ -> ok_machine "control create" (Session.create ~width (app 0)))
      ids
  in
  let streams = List.map (gen_events ~seed:7 ~n:12) ids in
  (* drive the fleet through its ingress queues and the scheduler,
     the controls directly — per-session order is identical *)
  List.iter2
    (fun id evs ->
      List.iter
        (fun ev ->
          match H.Registry.offer reg id ev with
          | H.Backpressure.Accepted -> ()
          | _ -> Alcotest.fail "offer not accepted under default capacity")
        evs)
    ids streams;
  (match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  List.iter2 (fun c evs -> List.iter (apply_direct c) evs) controls streams;
  List.iter2
    (fun id c ->
      Alcotest.(check string)
        (Printf.sprintf "pre-update obs of session %d" id)
        (obs c) (obs (fleet_session reg id)))
    ids controls;
  (* one broadcast vs. n independent updates of the same edit *)
  let rep =
    match H.Broadcast.update reg (app 1) with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "broadcast rejected: %s"
          (Live_core.Machine.error_to_string e)
  in
  let control_reports =
    List.map (fun c -> ok_machine "independent update" (Session.update c (app 1))) controls
  in
  List.iter2
    (fun id c ->
      Alcotest.(check string)
        (Printf.sprintf "post-update obs of session %d" id)
        (obs c) (obs (fleet_session reg id)))
    ids controls;
  (* the per-session fix-up summaries match the independent ones *)
  List.iter2
    (fun o control_rep ->
      match o.H.Broadcast.outcome with
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "fixup report of session %d" o.H.Broadcast.id)
            (Live_core.Fixup.report_to_string control_rep)
            (Live_core.Fixup.report_to_string r)
      | Error e ->
          Alcotest.failf "session %d failed the broadcast: %s"
            o.H.Broadcast.id
            (Live_core.Machine.error_to_string e))
    rep.H.Broadcast.outcomes control_reports;
  (* the version bump resets exactly the epoch global, per session *)
  Alcotest.(check int) "one reset global per session" n
    rep.H.Broadcast.dropped_globals;
  Alcotest.(check (list int))
    "violation-free fleet" []
    (List.map fst (H.Registry.check_invariants reg))

let test_broadcast_all_or_nothing () =
  let reg, ids = make_fleet ~sessions:4 0 in
  let sched = H.Scheduler.create reg in
  List.iter
    (fun id ->
      ignore (H.Registry.offer reg id (H.Registry.Tap { x = 2; y = 1 })))
    ids;
  (match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let before = List.map (fun id -> obs (fleet_session reg id)) ids in
  let program_before = H.Registry.program reg in
  (* no start page: Machine.check_program must refuse the edit *)
  let bad = Live_core.Program.without_def (app 1) "start" in
  let host_err =
    match H.Broadcast.update reg bad with
    | Ok _ -> Alcotest.fail "an ill-typed broadcast was applied"
    | Error e -> Live_core.Machine.error_to_string e
  in
  (* same rejection a single session would produce *)
  let solo = ok_machine "solo create" (Session.create ~width (app 0)) in
  (match Session.update solo bad with
  | Ok _ -> Alcotest.fail "an ill-typed solo update was applied"
  | Error e ->
      Alcotest.(check string)
        "fleet and solo reject identically" host_err
        (Live_core.Machine.error_to_string e));
  (* nothing was touched: observations, shared program, counters *)
  List.iter2
    (fun id o ->
      Alcotest.(check string)
        (Printf.sprintf "session %d untouched" id)
        o
        (obs (fleet_session reg id)))
    ids before;
  Alcotest.(check bool)
    "shared program unchanged" true
    (program_before == H.Registry.program reg);
  let s = H.Registry.snapshot reg in
  Alcotest.(check int) "updates_rejected" 1 s.H.Host_metrics.s_updates_rejected;
  Alcotest.(check int) "updates_applied" 0 s.H.Host_metrics.s_updates_applied

(* -- backpressure -------------------------------------------------- *)

let offer_all q xs = List.map (H.Backpressure.offer q) xs

let drain_all q =
  let rec go acc =
    match H.Backpressure.take q with
    | Some x -> go (x :: acc)
    | None -> List.rev acc
  in
  go []

let outcome : H.Backpressure.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | H.Backpressure.Accepted -> "accepted"
        | H.Backpressure.Dropped_oldest -> "dropped-oldest"
        | H.Backpressure.Rejected -> "rejected"))
    ( = )

let test_backpressure_drop_oldest () =
  let q =
    H.Backpressure.create ~capacity:3 ~policy:H.Backpressure.Drop_oldest
  in
  Alcotest.(check (list outcome))
    "first three admitted, then evictions"
    H.Backpressure.[ Accepted; Accepted; Accepted; Dropped_oldest; Dropped_oldest ]
    (offer_all q [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "still bounded" 3 (H.Backpressure.length q);
  Alcotest.(check (list int)) "freshest events survive" [ 3; 4; 5 ] (drain_all q)

let test_backpressure_reject () =
  let q = H.Backpressure.create ~capacity:3 ~policy:H.Backpressure.Reject in
  Alcotest.(check (list outcome))
    "first three admitted, then refusals"
    H.Backpressure.[ Accepted; Accepted; Accepted; Rejected; Rejected ]
    (offer_all q [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "oldest events survive" [ 1; 2; 3 ] (drain_all q)

let test_backpressure_clamp_and_clear () =
  let q = H.Backpressure.create ~capacity:0 ~policy:H.Backpressure.Reject in
  Alcotest.(check int) "capacity clamps to 1" 1 (H.Backpressure.capacity q);
  ignore (H.Backpressure.offer q 1);
  Alcotest.(check int) "clear reports the discarded count" 1
    (H.Backpressure.clear q);
  Alcotest.(check bool) "cleared" true (H.Backpressure.is_empty q)

(* -- registry accounting ------------------------------------------- *)

let accounting_line (s : H.Host_metrics.snapshot) =
  Printf.sprintf "in=%d processed=%d dropped=%d rejected=%d pending=%d"
    s.H.Host_metrics.s_events_in s.H.Host_metrics.s_events_processed
    s.H.Host_metrics.s_events_dropped s.H.Host_metrics.s_events_rejected
    s.H.Host_metrics.s_pending

let check_accounting reg where =
  let s = H.Registry.snapshot reg in
  if not (H.Host_metrics.accounting_ok s) then
    Alcotest.failf "%s: accounting mismatch: %s" where (accounting_line s)

let test_registry_accounting_under_drops () =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      queue_capacity = 2;
      queue_policy = H.Backpressure.Drop_oldest;
    }
  in
  let reg, ids = make_fleet ~config ~sessions:2 0 in
  let a = List.nth ids 0 and b = List.nth ids 1 in
  let tap = H.Registry.Tap { x = 2; y = 1 } in
  Alcotest.(check (list outcome))
    "bounded queue evicts under load"
    H.Backpressure.[ Accepted; Accepted; Dropped_oldest; Dropped_oldest ]
    (List.init 4 (fun _ -> H.Registry.offer reg a tap));
  Alcotest.(check outcome) "unknown id rejects" H.Backpressure.Rejected
    (H.Registry.offer reg 999 tap);
  Alcotest.(check int) "pending bounded" 2 (H.Registry.pending reg a);
  check_accounting reg "after drops";
  let sched = H.Scheduler.create reg in
  (match H.Scheduler.drain sched with
  | Ok n -> Alcotest.(check int) "surviving events processed" 2 n
  | Error m -> Alcotest.fail m);
  check_accounting reg "after drain";
  (* a kill accounts its orphaned pending events as dropped *)
  ignore (H.Registry.offer reg b tap);
  ignore (H.Registry.offer reg b tap);
  Alcotest.(check bool) "kill succeeds" true (H.Registry.kill reg b);
  Alcotest.(check bool) "killed id is gone" true
    (H.Registry.session reg b = None);
  Alcotest.(check outcome) "offers to the dead reject" H.Backpressure.Rejected
    (H.Registry.offer reg b tap);
  Alcotest.(check int) "fleet shrank" 1 (H.Registry.size reg);
  check_accounting reg "after kill";
  let s = H.Registry.snapshot reg in
  Alcotest.(check int) "kill counted" 1 s.H.Host_metrics.s_sessions_killed

let test_admission_limit () =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      admission_limit = Some 3;
    }
  in
  let reg, ids = make_fleet ~config ~sessions:2 0 in
  let a = List.nth ids 0 and b = List.nth ids 1 in
  let tap = H.Registry.Tap { x = 2; y = 1 } in
  Alcotest.(check outcome) "1st" H.Backpressure.Accepted (H.Registry.offer reg a tap);
  Alcotest.(check outcome) "2nd" H.Backpressure.Accepted (H.Registry.offer reg b tap);
  Alcotest.(check outcome) "3rd" H.Backpressure.Accepted (H.Registry.offer reg a tap);
  (* per-session queues have plenty of room; the fleet-wide cap bites *)
  Alcotest.(check outcome) "over the admission limit" H.Backpressure.Rejected
    (H.Registry.offer reg b tap);
  Alcotest.(check int) "total pending capped" 3 (H.Registry.total_pending reg);
  check_accounting reg "at the admission limit";
  let sched = H.Scheduler.create reg in
  (match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check outcome) "room again after draining" H.Backpressure.Accepted
    (H.Registry.offer reg b tap)

(* -- the scheduler ------------------------------------------------- *)

let test_scheduler_batching_and_coalescing () =
  let reg, ids = make_fleet ~sessions:3 0 in
  let sched = H.Scheduler.create ~batch:2 reg in
  let tap = H.Registry.Tap { x = 2; y = 1 } in
  List.iter
    (fun id -> for _ = 1 to 5 do ignore (H.Registry.offer reg id tap) done)
    ids;
  let r1 = H.Scheduler.tick sched in
  Alcotest.(check int) "tick 1: batch events per session" 6 r1.H.Scheduler.processed;
  Alcotest.(check int) "tick 1: all sessions served" 3 r1.H.Scheduler.sessions_served;
  Alcotest.(check int) "tick 1: one repaint per served session" 3 r1.H.Scheduler.repaints;
  Alcotest.(check int) "tick 1: the rest coalesced" 3 r1.H.Scheduler.coalesced;
  Alcotest.(check int) "tick 1: every tap hit" 6 r1.H.Scheduler.taps_hit;
  Alcotest.(check int) "tick 1: no errors" 0 (List.length r1.H.Scheduler.errors);
  ignore (H.Scheduler.tick sched);
  let r3 = H.Scheduler.tick sched in
  Alcotest.(check int) "tick 3: the single leftover per session" 3
    r3.H.Scheduler.processed;
  Alcotest.(check int) "tick 3: nothing to coalesce" 0 r3.H.Scheduler.coalesced;
  Alcotest.(check int) "all drained" 0 (H.Registry.total_pending reg);
  let r4 = H.Scheduler.tick sched in
  Alcotest.(check int) "an idle tick is a no-op" 0 r4.H.Scheduler.processed;
  let s = H.Registry.snapshot reg in
  Alcotest.(check int) "processed total" 15 s.H.Host_metrics.s_events_processed;
  Alcotest.(check int) "coalesced total" 6 s.H.Host_metrics.s_coalesced_renders;
  Alcotest.(check int) "every tap landed on a handler" 15
    s.H.Host_metrics.s_taps_hit;
  check_accounting reg "after the batched drain";
  (* each session counted every one of its 5 taps exactly once *)
  List.iter
    (fun id ->
      let st = Session.state (fleet_session reg id) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "session %d tick global" id)
        5.0 (get_store_num st "tick"))
    ids

let test_scheduler_hottest_first () =
  let reg, ids = make_fleet ~sessions:3 0 in
  let sched =
    H.Scheduler.create ~policy:H.Scheduler.Hottest_first ~batch:8 reg
  in
  let tap = H.Registry.Tap { x = 2; y = 2 } in
  (* unbalanced backlog: 12, 3, 0 pending *)
  let a = List.nth ids 0 and b = List.nth ids 1 in
  for _ = 1 to 12 do ignore (H.Registry.offer reg a tap) done;
  for _ = 1 to 3 do ignore (H.Registry.offer reg b tap) done;
  let r1 = H.Scheduler.tick sched in
  Alcotest.(check int) "only sessions with backlog served" 2
    r1.H.Scheduler.sessions_served;
  Alcotest.(check int) "hottest drains a full batch, the other its 3" 11
    r1.H.Scheduler.processed;
  (match H.Scheduler.drain sched with
  | Ok n -> Alcotest.(check int) "leftover backlog" 4 n
  | Error m -> Alcotest.fail m);
  check_accounting reg "after hottest-first drain";
  Alcotest.(check (list int))
    "violation-free fleet" []
    (List.map fst (H.Registry.check_invariants reg))

let test_scheduler_policy_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (H.Scheduler.policy_to_string p ^ " round-trips")
        true
        (H.Scheduler.policy_of_string (H.Scheduler.policy_to_string p)
        = Some p))
    [ H.Scheduler.Round_robin; H.Scheduler.Hottest_first ];
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (H.Backpressure.policy_to_string p ^ " round-trips")
        true
        (H.Backpressure.policy_of_string (H.Backpressure.policy_to_string p)
        = Some p))
    [ H.Backpressure.Drop_oldest; H.Backpressure.Reject ];
  Alcotest.(check bool) "unknown policy" true
    (H.Scheduler.policy_of_string "nope" = None)

(** Replay one seeded load scenario — per-session event bursts,
    mid-stream broadcasts, a final drain — under one service policy,
    and return the canonical fleet digest plus the loss-accounting
    counters.  The ingress queues are deliberately tiny so drop-oldest
    evictions happen: the digest's independence from the cross-session
    interleaving must cover the lossy path too. *)
let run_scenario ~sessions ~seed (policy : H.Scheduler.policy) :
    string * (int * int * int * int) =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      queue_capacity = 2;
      queue_policy = H.Backpressure.Drop_oldest;
    }
  in
  let reg, ids = make_fleet ~config ~sessions 0 in
  let sched = H.Scheduler.create ~policy ~batch:8 reg in
  let streams =
    List.map (fun id -> (id, Prng.create (Prng.derive seed id))) ids
  in
  let offer_burst (id, rng) =
    for _ = 0 to Prng.int rng 3 do
      let ev =
        if Prng.int rng 10 = 0 then H.Registry.Back
        else
          H.Registry.Tap
            { x = Prng.int rng width; y = Prng.int rng (rows + 3) }
      in
      ignore (H.Registry.offer reg id ev)
    done
  in
  let version = ref 0 in
  for round = 0 to 13 do
    List.iter offer_burst streams;
    ignore (H.Scheduler.tick sched);
    if round = 4 || round = 9 then begin
      incr version;
      match H.Broadcast.update reg (app !version) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "broadcast: %s" (Live_core.Machine.error_to_string e)
    end
  done;
  (match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check_accounting reg (H.Scheduler.policy_to_string policy);
  Alcotest.(check (list int))
    "violation-free fleet" []
    (List.map fst (H.Registry.check_invariants reg));
  let s = H.Registry.snapshot reg in
  ( H.Registry.digest reg,
    ( s.H.Host_metrics.s_events_in,
      s.H.Host_metrics.s_events_processed,
      s.H.Host_metrics.s_events_dropped,
      s.H.Host_metrics.s_events_rejected ) )

let prop_service_order_is_invisible =
  qcheck ~count:12
    "round-robin ≡ hottest-first: byte-identical fleets, exact accounting, \
     under broadcasts and drops"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sessions = 2 + (seed mod 4) in
      let d0, acct0 = run_scenario ~sessions ~seed H.Scheduler.Round_robin in
      let d1, acct1 = run_scenario ~sessions ~seed H.Scheduler.Hottest_first in
      if not (String.equal d0 d1) then
        QCheck2.Test.fail_reportf "fleet digest diverges (seed %d)" seed
      else if acct0 <> acct1 then
        QCheck2.Test.fail_reportf "accounting diverges (seed %d)" seed
      else true)

(* -- the ready set -------------------------------------------------- *)

(** One step of a random fleet history.  Session operands index the
    live ids modulo the fleet size; [Detach] drains the queue through
    [take] and then kills, as the server's Detach does. *)
type op =
  | Offer of int * int
  | Take of int
  | Kill of int
  | Spawn
  | Adopt
  | Detach of int
  | Tick of H.Scheduler.policy
  | Drain of H.Scheduler.policy
  | Broadcast
  | Begin
  | Canary
  | Promote
  | Rollback

let pp_op ppf = function
  | Offer (i, k) -> Fmt.pf ppf "offer(%d,%d)" i k
  | Take i -> Fmt.pf ppf "take(%d)" i
  | Kill i -> Fmt.pf ppf "kill(%d)" i
  | Spawn -> Fmt.string ppf "spawn"
  | Adopt -> Fmt.string ppf "adopt"
  | Detach i -> Fmt.pf ppf "detach(%d)" i
  | Tick p -> Fmt.pf ppf "tick(%s)" (H.Scheduler.policy_to_string p)
  | Drain p -> Fmt.pf ppf "drain(%s)" (H.Scheduler.policy_to_string p)
  | Broadcast -> Fmt.string ppf "broadcast"
  | Begin -> Fmt.string ppf "begin"
  | Canary -> Fmt.string ppf "canary"
  | Promote -> Fmt.string ppf "promote"
  | Rollback -> Fmt.string ppf "rollback"

let gen_history =
  let open QCheck2.Gen in
  let idx = int_bound 15 in
  let policy = oneofl H.Scheduler.[ Round_robin; Hottest_first ] in
  let op =
    frequency
      [
        (10, map2 (fun i k -> Offer (i, k)) idx (int_bound 999));
        (3, map (fun i -> Take i) idx);
        (1, map (fun i -> Kill i) idx);
        (1, return Spawn);
        (1, return Adopt);
        (1, map (fun i -> Detach i) idx);
        (3, map (fun p -> Tick p) policy);
        (1, map (fun p -> Drain p) policy);
        (1, return Broadcast);
        (1, return Begin);
        (1, return Canary);
        (1, return Promote);
        (1, return Rollback);
      ]
  in
  tup4
    (oneofl H.Backpressure.[ Drop_oldest; Reject ])
    (int_range 1 3) (* queue capacity *)
    (int_range 1 3) (* scheduler batch *)
    (list_size (int_range 1 60) op)

(** Replay one history.  [eager] compares {!H.Registry.ready} with the
    sessions that have input after every op; otherwise only at the end,
    so ids emptied or killed stay listed across several ops before a
    tick prunes them (the lazy path the server takes). *)
let run_history ~eager (queue_policy, queue_capacity, batch, ops) : bool =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      queue_capacity;
      queue_policy;
      admission_limit = Some 6;
    }
  in
  let reg, _ = make_fleet ~config ~sessions:3 0 in
  let sched p = H.Scheduler.create ~policy:p ~batch reg in
  let rr = sched H.Scheduler.Round_robin
  and hf = sched H.Scheduler.Hottest_first in
  let of_policy = function
    | H.Scheduler.Round_robin -> rr
    | H.Scheduler.Hottest_first -> hf
  in
  let version = ref 0 and rollout = ref None in
  let nth i f =
    match H.Registry.ids reg with
    | [] -> ()
    | ids -> f (List.nth ids (i mod List.length ids))
  in
  let history = ref [] in
  let fail fmt =
    QCheck2.Test.fail_reportf
      ("%s, checked %s, after %a: " ^^ fmt)
      (H.Backpressure.policy_to_string queue_policy)
      (if eager then "after every op" else "at the end")
      Fmt.(list ~sep:(any " ") pp_op)
      (List.rev !history)
  in
  let with_pending () =
    List.filter_map
      (fun id ->
        let p = H.Registry.pending reg id in
        if p > 0 then Some (id, p) else None)
      (H.Registry.ids reg)
  in
  let apply = function
    | Offer (i, k) ->
        nth i (fun id ->
            let ev =
              if k mod 10 = 0 then H.Registry.Back
              else H.Registry.Tap { x = k mod width; y = k mod (rows + 3) }
            in
            ignore (H.Registry.offer reg id ev))
    | Take i -> nth i (fun id -> ignore (H.Registry.take reg id))
    | Kill i -> nth i (fun id -> ignore (H.Registry.kill reg id))
    | Spawn -> ignore (ok_machine "spawn" (H.Registry.spawn reg))
    | Adopt -> (
        let s =
          ok_machine "boot"
            (Session.create ~width (H.Registry.program reg))
        in
        match H.Registry.adopt reg s with
        | exception Invalid_argument _ -> () (* a rollout is open *)
        | _ -> ())
    | Detach i ->
        nth i (fun id ->
            while H.Registry.take reg id <> None do
              ()
            done;
            ignore (H.Registry.kill reg id))
    | Tick p ->
        let before = with_pending () in
        let r = H.Scheduler.tick (of_policy p) in
        let processed =
          List.fold_left (fun n (_, k) -> n + min batch k) 0 before
        in
        if r.H.Scheduler.sessions_served <> List.length before then
          fail "tick served %d sessions, %d had input"
            r.H.Scheduler.sessions_served (List.length before)
        else if r.H.Scheduler.processed <> processed then
          fail "tick processed %d events, expected %d"
            r.H.Scheduler.processed processed
        else ()
    | Drain p -> (
        let total = H.Registry.total_pending reg in
        match H.Scheduler.drain (of_policy p) with
        | Error m -> fail "drain: %s" m
        | Ok n when n <> total -> fail "drain processed %d of %d" n total
        | Ok _ -> ())
    | Broadcast -> (
        match H.Broadcast.update reg (app (!version + 1)) with
        | Ok _ -> incr version
        | Error _ -> () (* refused while a rollout is open *))
    | Begin -> (
        if !rollout = None then
          match
            H.Rollout.begin_ ~fraction:0.5 ~seed:!version reg
              (app (!version + 1))
          with
          | Ok r -> rollout := Some r
          | Error e -> fail "begin_: %s" (Live_core.Machine.error_to_string e))
    | Canary -> (
        match !rollout with
        | Some r when H.Rollout.stage r = H.Rollout.Staged ->
            ignore (H.Rollout.canary r)
        | _ -> ())
    | Promote -> (
        match !rollout with
        | Some r when H.Rollout.stage r = H.Rollout.Canarying ->
            ignore (H.Rollout.promote r);
            incr version;
            rollout := None
        | _ -> ())
    | Rollback -> (
        match !rollout with
        | Some r ->
            ignore (H.Rollout.rollback r);
            rollout := None
        | None -> ())
  in
  let check () =
    let expected = List.map fst (with_pending ()) in
    let ready = H.Registry.ready reg in
    if ready <> expected then
      fail "ready = [%a], sessions with input = [%a]"
        Fmt.(list ~sep:comma int)
        ready
        Fmt.(list ~sep:comma int)
        expected
  in
  Fun.protect
    ~finally:(fun () ->
      (* release the rollout's compile-epoch pins *)
      Option.iter (fun r -> ignore (H.Rollout.rollback r)) !rollout)
    (fun () ->
      List.iter
        (fun op ->
          history := op :: !history;
          apply op;
          if eager then check ())
        ops;
      check ();
      true)

let prop_ready_set =
  qcheck ~count:150
    "the ready set is exactly the sessions with pending input; a tick \
     serves them and only them"
    gen_history
    (fun h -> run_history ~eager:true h && run_history ~eager:false h)

(* -- metrics ------------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = H.Host_metrics.histogram () in
  Alcotest.(check (float 0.0)) "empty histogram" 0.0
    (H.Host_metrics.quantile h 0.5);
  for i = 1 to 1000 do
    H.Host_metrics.record h (float_of_int i *. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (H.Host_metrics.hist_count h);
  let p50 = H.Host_metrics.quantile h 0.5 in
  let p99 = H.Host_metrics.quantile h 0.99 in
  (* buckets approximate by their geometric centre: ~15% tolerance *)
  if p50 < 400_000. || p50 > 600_000. then
    Alcotest.failf "p50 %.0f outside [400k, 600k]" p50;
  if p99 < 800_000. || p99 > 1_000_000. then
    Alcotest.failf "p99 %.0f outside [800k, 1000k]" p99;
  if p50 > p99 then Alcotest.failf "p50 %.0f above p99 %.0f" p50 p99;
  let q0 = H.Host_metrics.quantile h 0. in
  if q0 < 1000. || q0 > 1200. then
    Alcotest.failf "q=0 is %.0f, not within a bucket of the observed min" q0;
  Alcotest.(check (float 0.0)) "q=1 clamps to the observed max" 1_000_000.
    (H.Host_metrics.quantile h 1.)

let test_histogram_wide_distribution () =
  (* The 8-per-decade table this replaced saturated under B15's
     fleet=1000 run: 1.33x-wide buckets swallowed the whole latency
     spread and the report printed p50 = p99.  Reproduce the shape
     synthetically — bulk mass over two decades plus a 1% tail three
     decades up — and demand the quantiles separate and land where
     they should. *)
  let h = H.Host_metrics.histogram () in
  for i = 1 to 980 do
    (* bulk: 11 µs .. ~1 ms *)
    H.Host_metrics.record h (10_000. +. (float_of_int i *. 1_000.))
  done;
  for i = 1 to 20 do
    (* tail: 1 s .. 20 s — beyond the old table's top bucket *)
    H.Host_metrics.record h (float_of_int i *. 1_000_000_000.)
  done;
  let p50 = H.Host_metrics.quantile h 0.5 in
  let p99 = H.Host_metrics.quantile h 0.99 in
  if not (p50 < p99) then
    Alcotest.failf "p50 %.0f not below p99 %.0f on a wide distribution" p50 p99;
  if p50 > 2_000_000. then Alcotest.failf "p50 %.0f escaped the bulk" p50;
  if p99 < 500_000_000. then Alcotest.failf "p99 %.0f missed the tail" p99

(* The shard director merges its shards' exported metrics into fleet
   totals with [merge] and [union_histogram]. *)

let test_metrics_merge_accounting () =
  (* two instances that each satisfy the accounting identity against
     their own pending count *)
  let a = H.Host_metrics.create () in
  a.H.Host_metrics.events_in <- 100;
  a.H.Host_metrics.events_processed <- 70;
  a.H.Host_metrics.events_dropped <- 15;
  a.H.Host_metrics.events_rejected <- 10;
  let pending_a = 5 in
  let b = H.Host_metrics.create () in
  b.H.Host_metrics.events_in <- 40;
  b.H.Host_metrics.events_processed <- 33;
  b.H.Host_metrics.events_rejected <- 4;
  let pending_b = 3 in
  let ok m pending =
    H.Host_metrics.accounting_ok
      (H.Host_metrics.snapshot m ~sessions:1 ~pending ~cache:None)
  in
  Alcotest.(check bool) "a accounts" true (ok a pending_a);
  Alcotest.(check bool) "b accounts" true (ok b pending_b);
  let m = H.Host_metrics.merge a b in
  Alcotest.(check bool)
    "the identity survives the merge" true
    (ok m (pending_a + pending_b));
  Alcotest.(check int) "counters add exactly" 140 m.H.Host_metrics.events_in;
  Alcotest.(check int) "processed adds" 103 m.H.Host_metrics.events_processed;
  (* the inputs keep counting: merge is a fresh instance *)
  a.H.Host_metrics.events_in <- 101;
  Alcotest.(check int) "merge is a snapshot, not a view" 140
    m.H.Host_metrics.events_in

let test_histogram_union () =
  let a = H.Host_metrics.histogram () in
  let b = H.Host_metrics.histogram () in
  (* disjoint ranges: a holds 1..500 us, b holds 501..1000 us *)
  for i = 1 to 500 do
    H.Host_metrics.record a (float_of_int i *. 1000.)
  done;
  for i = 501 to 1000 do
    H.Host_metrics.record b (float_of_int i *. 1000.)
  done;
  let u = H.Host_metrics.union_histogram a b in
  Alcotest.(check int) "counts add" 1000 (H.Host_metrics.hist_count u);
  let p50 = H.Host_metrics.quantile u 0.5 in
  let p99 = H.Host_metrics.quantile u 0.99 in
  if p50 < 400_000. || p50 > 600_000. then
    Alcotest.failf "union p50 %.0f outside [400k, 600k]" p50;
  if p99 < 800_000. || p99 > 1_000_000. then
    Alcotest.failf "union p99 %.0f outside [800k, 1000k]" p99;
  (* extrema union: quantiles clamp to the combined observed range *)
  Alcotest.(check (float 0.0))
    "q=1 clamps to b's max" 1_000_000.
    (H.Host_metrics.quantile u 1.);
  let q0 = H.Host_metrics.quantile u 0. in
  if q0 < 1000. || q0 > 1200. then
    Alcotest.failf "union q=0 is %.0f, not near a's min" q0;
  (* the union is fresh: recording into an input changes nothing *)
  H.Host_metrics.record a 1.;
  Alcotest.(check int) "fresh" 1000 (H.Host_metrics.hist_count u)

let test_metrics_dump () =
  let reg, ids = make_fleet ~sessions:2 0 in
  let sched = H.Scheduler.create reg in
  List.iter
    (fun id ->
      ignore (H.Registry.offer reg id (H.Registry.Tap { x = 2; y = 1 })))
    ids;
  (match H.Scheduler.drain sched with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match H.Broadcast.update reg (app 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "broadcast: %s" (Live_core.Machine.error_to_string e));
  let dump = H.Host_metrics.to_string (H.Registry.snapshot reg) in
  List.iter (check_contains "metrics dump" dump)
    [ "sessions"; "latency"; "fan-out"; "p50"; "p99"; "accounting        ok" ]

(* -- the oracle's single-session fleet ----------------------------- *)

let test_host_is_an_oracle_config () =
  Alcotest.(check bool) "host is differentially fuzzed" true
    (List.mem "host" Live_conformance.Oracle.all_configs)

let prop_fleet_of_one_agrees_with_machine =
  qcheck ~count:15 "a fleet of one ≡ the reference machine on random traces"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let open Live_conformance in
      let t = Engine.gen_trace ~n_events:10 ~seed () in
      match Oracle.run ~configs:[ "machine"; "host" ] t with
      | Oracle.Agreed -> true
      | Oracle.Diverged d ->
          QCheck2.Test.fail_reportf "diverged: %a" Oracle.pp_divergence d
      | Oracle.Boot_failed m -> QCheck2.Test.fail_reportf "boot failed: %s" m)

(* -- one render cache per code epoch ---------------------------------- *)

let cached_config ?(evaluator = Live_core.Machine.Compiled) () =
  { H.Registry.default_config with H.Registry.width; cache = true; evaluator }

let spawn_exn reg =
  ok_machine "spawn" (H.Registry.spawn reg)

let session_exn reg id = Option.get (H.Registry.session reg id)

let rc_stats (s : Session.t) : Live_core.Render_cache.stats =
  Option.get (Session.render_cache_stats s)

(** Sessions on one epoch share its subtree tables: a fresh session's
    boot render finds every [boxed] subtree the first one recorded. *)
let test_second_boot_replays_the_epoch () =
  let reg = H.Registry.create ~config:(cached_config ()) (app 0) in
  let a = session_exn reg (spawn_exn reg) in
  let b = session_exn reg (spawn_exn reg) in
  let sa = rc_stats a and sb = rc_stats b in
  Alcotest.(check bool)
    (Printf.sprintf "the first boot evaluates (%d misses)" sa.misses)
    true (sa.misses > 0);
  Alcotest.(check int)
    "the second boot evaluates no boxed subtree" 0 sb.misses;
  Alcotest.(check bool) "it replays instead" true (sb.hits > 0);
  Alcotest.(check string) "same screen" (Session.screenshot a)
    (Session.screenshot b)

(* the label is a function, so the [boxed] subexpression that calls it
   is the same expression under both versions *)
let labelled (v : int) : Live_core.Program.t =
  (ok_compile
     (Printf.sprintf
        "global n : number = 0
         fun label(x : number) : string {
        \  return \"v%d \" ++ str(x)
         }
         page start()
         init { }
         render {
        \  boxed { post label(n) on tapped { n := n + 1 } }
         }
"
        v))
    .Live_surface.Compile.core

(* Session A renders n = 1 under version 1; an UPDATE installs version
   2; then session B reaches n = 1 for the first time.  Returns B's
   screen, an uncached reference's, and B's hits on that tap.  The
   substitution evaluator keys subtrees by expression, which the edit
   leaves unchanged, so only the code check stands between B and A's
   stale entry. *)
let cross_session_tap ~(sabotage : bool) : string * string * int =
  let reg =
    H.Registry.create
      ~config:(cached_config ~evaluator:Live_core.Machine.Subst ())
      (labelled 1)
  in
  let a = session_exn reg (spawn_exn reg) in
  let b = session_exn reg (spawn_exn reg) in
  if sabotage then
    Live_core.Render_cache.set_sabotage_no_flush
      (Option.get (Session.render_cache_handle b))
      true;
  ignore (ok_machine "A taps" (Session.tap_first a));
  ignore (ok_machine "update" (H.Broadcast.update reg (labelled 2)));
  let hits0 = (rc_stats b).hits in
  ignore (ok_machine "B taps" (Session.tap_first b));
  let reference = ok_machine "reference" (Session.create ~width (labelled 1)) in
  ignore (ok_machine "reference update" (Session.update reference (labelled 2)));
  ignore (ok_machine "reference taps" (Session.tap_first reference));
  (Session.screenshot b, Session.screenshot reference, (rc_stats b).hits - hits0)

let test_cross_session_sabotage_bites () =
  let b, reference, hits = cross_session_tap ~sabotage:true in
  Alcotest.(check bool) "B replayed a subtree it never rendered" true (hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "B diverges from the uncached reference:\n%s\nvs\n%s" b
       reference)
    false (String.equal b reference);
  let b, reference, _ = cross_session_tap ~sabotage:false in
  Alcotest.(check string) "without the sabotage B agrees" reference b

let suite =
  [
    case "broadcast UPDATE ≡ independent per-session updates"
      test_broadcast_equals_independent;
    case "a rejected broadcast touches nothing" test_broadcast_all_or_nothing;
    case "drop-oldest evicts the stalest event" test_backpressure_drop_oldest;
    case "reject refuses the newest event" test_backpressure_reject;
    case "capacity clamps; clear accounts" test_backpressure_clamp_and_clear;
    case "loss accounting survives drops, rejects and kills"
      test_registry_accounting_under_drops;
    case "the fleet-wide admission limit bites" test_admission_limit;
    case "batched draining coalesces repaints, not semantics"
      test_scheduler_batching_and_coalescing;
    case "hottest-first serves the backlog" test_scheduler_hottest_first;
    case "policy names round-trip" test_scheduler_policy_strings;
    prop_service_order_is_invisible;
    prop_ready_set;
    case "histogram quantiles are sane" test_histogram_quantiles;
    case "histogram separates p50 from p99 on a wide spread"
      test_histogram_wide_distribution;
    case "Host_metrics.merge preserves the accounting identity"
      test_metrics_merge_accounting;
    case "histogram union is quantile-safe" test_histogram_union;
    case "the metrics dump names its numbers" test_metrics_dump;
    case "host rides the differential fuzzer" test_host_is_an_oracle_config;
    case "a second session boots from the epoch's tables"
      test_second_boot_replays_the_epoch;
    case "the cache sabotage bites across sessions"
      test_cross_session_sabotage_bites;
    prop_fleet_of_one_agrees_with_machine;
  ]
