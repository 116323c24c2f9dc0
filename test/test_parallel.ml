(** The domain-parallel host ([lib/host/parallel]): parallel execution
    must be {e deterministically equivalent} to the sequential
    scheduler — same seeded traces, byte-identical per-session stores,
    stacks and framebuffers for every [jobs], with the loss accounting
    agreeing to the event — the broadcast barrier must never let an
    update overlap a tick, and {!Live_host.Host_metrics.merge} must
    preserve the accounting identity exactly. *)

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

(* ------------------------------------------------------------------ *)
(* Metrics merge (the per-domain → fleet-totals operation)             *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* parallel ≡ sequential                                               *)
(* ------------------------------------------------------------------ *)

(** Replay one seeded load scenario — per-session event bursts,
    mid-stream broadcasts, a final drain — through either the
    sequential scheduler ([jobs = None]) or the parallel pool, and
    return the canonical fleet digest plus the loss-accounting
    counters.  The ingress queues are deliberately tiny so drop-oldest
    evictions happen; determinism must cover the lossy paths too. *)
let run_scenario ?(sessions = 5) ?(rounds = 14) ?(capacity = 2)
    ?(updates = [ 4; 9 ]) ~seed (jobs : int option) :
    string * (int * int * int * int) =
  let config =
    {
      H.Registry.default_config with
      H.Registry.width;
      queue_capacity = capacity;
      queue_policy = H.Backpressure.Drop_oldest;
    }
  in
  let reg = H.Registry.create ~config (app 0) in
  let _ids = ok_machine "spawn" (H.Registry.spawn_many reg sessions) in
  let ids = Array.of_list (H.Registry.ids reg) in
  let rngs = Array.map (fun id -> Prng.create (Prng.derive seed id)) ids in
  let offer_burst i id =
    let rng = rngs.(i) in
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
  let finish snapshot =
    let s = snapshot () in
    if not (H.Host_metrics.accounting_ok s) then
      Alcotest.failf "accounting mismatch (jobs=%s)"
        (match jobs with None -> "seq" | Some j -> string_of_int j);
    Alcotest.(check (list int))
      "violation-free fleet" []
      (List.map fst (H.Registry.check_invariants reg));
    ( H.Registry.digest reg,
      ( s.H.Host_metrics.s_events_in,
        s.H.Host_metrics.s_events_processed,
        s.H.Host_metrics.s_events_dropped,
        s.H.Host_metrics.s_events_rejected ) )
  in
  match jobs with
  | None ->
      let sched = H.Scheduler.create ~batch:8 reg in
      let version = ref 0 in
      for round = 0 to rounds - 1 do
        Array.iteri offer_burst ids;
        ignore (H.Scheduler.tick sched);
        if List.mem round updates then begin
          incr version;
          match H.Broadcast.update reg (app !version) with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "broadcast: %s"
                (Live_core.Machine.error_to_string e)
        end
      done;
      (match H.Scheduler.drain sched with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      finish (fun () -> H.Registry.snapshot reg)
  | Some jobs ->
      H.Parallel.with_pool ~jobs ~batch:8 reg (fun pool ->
          let version = ref 0 in
          for round = 0 to rounds - 1 do
            Array.iteri offer_burst ids;
            ignore (H.Parallel.tick pool);
            if List.mem round updates then begin
              incr version;
              match H.Parallel.update pool (app !version) with
              | Ok _ -> ()
              | Error e ->
                  Alcotest.failf "parallel broadcast: %s"
                    (Live_core.Machine.error_to_string e)
            end
          done;
          (match H.Parallel.drain pool with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m);
          Alcotest.(check int)
            "no barrier violations" 0
            (H.Parallel.barrier_violations pool);
          finish (fun () -> H.Parallel.snapshot pool))

let prop_parallel_equals_sequential =
  qcheck ~count:12
    "parallel(jobs=1|2|4) ≡ sequential: byte-identical fleets, exact \
     accounting, under broadcasts and drops"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sessions = 2 + (seed mod 4) in
      let d0, acct0 = run_scenario ~sessions ~seed None in
      List.for_all
        (fun jobs ->
          let d, acct = run_scenario ~sessions ~seed (Some jobs) in
          if not (String.equal d d0) then
            QCheck2.Test.fail_reportf
              "fleet digest diverges at jobs=%d (seed %d)" jobs seed
          else if acct <> acct0 then
            QCheck2.Test.fail_reportf
              "accounting diverges at jobs=%d (seed %d)" jobs seed
          else true)
        [ 1; 2; 4 ])

(** The lossless cross-check: ample queues, every event processed, and
    the per-domain metrics must sum to exactly the fleet total. *)
let test_domain_metrics_sum () =
  let reg = H.Registry.create
      ~config:{ H.Registry.default_config with H.Registry.width }
      (app 0)
  in
  let _ = ok_machine "spawn" (H.Registry.spawn_many reg 6) in
  H.Parallel.with_pool ~jobs:3 ~batch:4 reg (fun pool ->
      let tap = H.Registry.Tap { x = 2; y = 1 } in
      List.iter
        (fun id ->
          for _ = 1 to 5 do
            ignore (H.Registry.offer reg id tap)
          done)
        (H.Registry.ids reg);
      (match H.Parallel.drain pool with
      | Ok n -> Alcotest.(check int) "all processed" 30 n
      | Error m -> Alcotest.fail m);
      let per_domain =
        Array.fold_left
          (fun acc m -> acc + m.H.Host_metrics.events_processed)
          0
          (H.Parallel.domain_metrics pool)
      in
      Alcotest.(check int) "per-domain processed sums to the fleet" 30
        per_domain;
      let s = H.Parallel.snapshot pool in
      Alcotest.(check int) "fleet snapshot agrees" 30
        s.H.Host_metrics.s_events_processed;
      Alcotest.(check bool) "identity" true (H.Host_metrics.accounting_ok s);
      (* each session absorbed its 5 taps exactly once, wherever it ran *)
      List.iter
        (fun id ->
          match H.Registry.session reg id with
          | None -> Alcotest.fail "session vanished"
          | Some s ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "session %d tick global" id)
                5.0
                (get_store_num (Session.state s) "tick"))
        (H.Registry.ids reg))

(* ------------------------------------------------------------------ *)
(* The broadcast barrier                                               *)
(* ------------------------------------------------------------------ *)

(** Broadcasts fired from another domain while the coordinator ticks
    under load: the stop-the-world lock must serialize them against
    in-flight shards — zero barrier violations, every per-session
    update outcome clean, a healthy fleet, exact accounting. *)
let test_concurrent_broadcast_barrier () =
  let reg = H.Registry.create
      ~config:{ H.Registry.default_config with H.Registry.width }
      (app 0)
  in
  let _ = ok_machine "spawn" (H.Registry.spawn_many reg 8) in
  let n_updates = 5 in
  H.Parallel.with_pool ~jobs:4 ~batch:4 reg (fun pool ->
      let bad_outcomes = Atomic.make 0 in
      let updater =
        Domain.spawn (fun () ->
            for v = 1 to n_updates do
              (match H.Parallel.update pool (app v) with
              | Ok r ->
                  List.iter
                    (fun o ->
                      match o.H.Broadcast.outcome with
                      | Ok _ -> ()
                      | Error _ ->
                          ignore (Atomic.fetch_and_add bad_outcomes 1))
                    r.H.Broadcast.outcomes
              | Error _ -> ignore (Atomic.fetch_and_add bad_outcomes 1));
              (* let some ticks land between broadcasts *)
              Unix.sleepf 0.002
            done)
      in
      let rng = Prng.create 99 in
      let ids = Array.of_list (H.Registry.ids reg) in
      for _ = 1 to 300 do
        Array.iter
          (fun id ->
            let ev =
              if Prng.int rng 10 = 0 then H.Registry.Back
              else
                H.Registry.Tap
                  { x = Prng.int rng width; y = Prng.int rng (rows + 3) }
            in
            ignore (H.Registry.offer reg id ev))
          ids;
        ignore (H.Parallel.tick pool)
      done;
      Domain.join updater;
      (match H.Parallel.drain pool with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      Alcotest.(check int)
        "a broadcast never overlapped a tick" 0
        (H.Parallel.barrier_violations pool);
      Alcotest.(check int) "every per-session update clean" 0
        (Atomic.get bad_outcomes);
      let s = H.Parallel.snapshot pool in
      Alcotest.(check int) "all broadcasts applied" n_updates
        s.H.Host_metrics.s_updates_applied;
      Alcotest.(check bool) "identity" true (H.Host_metrics.accounting_ok s);
      Alcotest.(check (list int))
        "no session saw a half-ticked fleet" []
        (List.map fst (H.Registry.check_invariants reg)))

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_shutdown_is_idempotent_and_final () =
  let reg = H.Registry.create
      ~config:{ H.Registry.default_config with H.Registry.width }
      (app 0)
  in
  let _ = ok_machine "spawn" (H.Registry.spawn_many reg 2) in
  let pool = H.Parallel.create ~jobs:3 reg in
  Alcotest.(check int) "jobs clamped as given" 3 (H.Parallel.jobs pool);
  ignore (H.Parallel.tick pool);
  H.Parallel.shutdown pool;
  H.Parallel.shutdown pool;
  (match H.Parallel.tick pool with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tick after shutdown must be refused");
  (* the registry survives the pool: a sequential scheduler drains it *)
  ignore (H.Registry.offer reg 0 (H.Registry.Tap { x = 2; y = 1 }));
  match H.Scheduler.drain (H.Scheduler.create reg) with
  | Ok n -> Alcotest.(check int) "registry still serviceable" 1 n
  | Error m -> Alcotest.fail m

let test_oracle_covers_host_parallel () =
  Alcotest.(check bool) "host-parallel is differentially fuzzed" true
    (List.mem "host-parallel" Live_conformance.Oracle.all_configs)

let prop_parallel_fleet_of_one_agrees_with_machine =
  qcheck ~count:10
    "a parallel fleet of one ≡ the reference machine on random traces"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let open Live_conformance in
      let t = Engine.gen_trace ~n_events:10 ~seed () in
      match Oracle.run ~configs:[ "machine"; "host-parallel" ] t with
      | Oracle.Agreed -> true
      | Oracle.Diverged d ->
          QCheck2.Test.fail_reportf "diverged: %a" Oracle.pp_divergence d
      | Oracle.Boot_failed m -> QCheck2.Test.fail_reportf "boot failed: %s" m)

let suite =
  [
    case "Host_metrics.merge preserves the accounting identity"
      test_metrics_merge_accounting;
    case "histogram union is quantile-safe" test_histogram_union;
    prop_parallel_equals_sequential;
    case "per-domain metrics sum exactly to fleet totals"
      test_domain_metrics_sum;
    slow_case "broadcasts from another domain hit the barrier, never a \
               half-ticked fleet"
      test_concurrent_broadcast_barrier;
    case "shutdown is idempotent; the registry outlives the pool"
      test_shutdown_is_idempotent_and_final;
    case "host-parallel rides the differential fuzzer"
      test_oracle_covers_host_parallel;
    prop_parallel_fleet_of_one_agrees_with_machine;
  ]
