(** The restart baseline (the conventional edit-compile-run cycle of
    Sec. 2) and the retained-mode comparator — demonstrating exactly
    the problems the paper's design removes. *)

open Live_runtime
open Helpers

let counter_core () = (ok_compile Live_workloads.Counter.source).core

let restart_of ?(width = 24) (src : string) : Live_baseline.Restart_runtime.t =
  match
    Live_baseline.Restart_runtime.create ~width (ok_compile src).core
  with
  | Ok t -> t
  | Error e ->
      Alcotest.failf "restart runtime: %s"
        (Live_baseline.Restart_runtime.error_to_string e)

let ok_restart what r =
  match r with
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" what
        (Live_baseline.Restart_runtime.error_to_string e)

let test_restart_loses_state () =
  (* the defining failure of the conventional cycle: the same edit that
     live programming absorbs resets the model on restart *)
  let t = restart_of Live_workloads.Counter.source in
  ignore (ok_restart "tap" (Live_baseline.Restart_runtime.tap t ~x:2 ~y:1));
  ignore (ok_restart "tap" (Live_baseline.Restart_runtime.tap t ~x:2 ~y:1));
  check_contains "two taps" (Live_baseline.Restart_runtime.screenshot t)
    "taps: 2";
  let outcome =
    ok_restart "update"
      (Live_baseline.Restart_runtime.update t (counter_core ()))
  in
  (* the trace was replayed, so the counter is 2 again — but only
     because the taps were re-executed from scratch *)
  Alcotest.(check int) "replayed both taps" 2 outcome.Live_baseline.Restart_runtime.replayed;
  check_contains "state rebuilt by replay"
    (Live_baseline.Restart_runtime.screenshot t) "taps: 2"

(* the restart cycle records every interaction, hit or miss: its
   trace is what it replays after a restart *)
let test_restart_trace_records_everything () =
  let module R = Live_baseline.Restart_runtime in
  let t = restart_of Live_workloads.Counter.source in
  ignore (ok_restart "tap" (R.tap t ~x:2 ~y:1));
  ignore (ok_restart "tap" (R.tap t ~x:0 ~y:99));
  ok_restart "back" (R.back t);
  Alcotest.(check int) "three interactions" 3 (Trace.length (R.trace t));
  match R.trace t with
  | [ Trace.Tap { x = 2; y = 1 }; Trace.Tap { x = 0; y = 99 }; Trace.Back ] ->
      ()
  | tr -> Alcotest.failf "unexpected trace: %a" Trace.pp tr

let test_restart_replay_diverges_on_layout_change () =
  (* the paper's trace-re-execution problem (Sec. 1): "code changes can
     cause the re-execution to diverge from the previous trace" — a
     layout change moves the button out from under the recorded tap *)
  let t = restart_of Live_workloads.Counter.source in
  ignore (ok_restart "tap" (Live_baseline.Restart_runtime.tap t ~x:2 ~y:1));
  (* new version: a tall banner pushes the counter box down *)
  let moved =
    {|global counter : number = 0
page start()
init { counter := 0 }
render {
  boxed { post "banner line 1" }
  boxed { post "banner line 2" }
  boxed {
    box.border := 1
    post "taps: " ++ str(counter)
    on tapped { counter := counter + 1 }
  }
}
|}
  in
  let outcome =
    ok_restart "update"
      (Live_baseline.Restart_runtime.update t (ok_compile moved).core)
  in
  Alcotest.(check int) "the tap missed" 1
    outcome.Live_baseline.Restart_runtime.missed_taps;
  check_contains "state lost" (Live_baseline.Restart_runtime.screenshot t)
    "taps: 0"

let test_live_absorbs_the_same_change () =
  (* the same scenario through the live runtime: no loss, no replay *)
  let ls = live_of ~width:24 Live_workloads.Counter.source in
  ignore (Live_session.tap ls ~x:2 ~y:1);
  let moved =
    {|global counter : number = 0
page start()
init { counter := 0 }
render {
  boxed { post "banner line 1" }
  boxed { post "banner line 2" }
  boxed {
    box.border := 1
    post "taps: " ++ str(counter)
    on tapped { counter := counter + 1 }
  }
}
|}
  in
  match Live_session.edit ls moved with
  | Ok o ->
      check_contains "state preserved without replay"
        o.Live_session.screenshot "taps: 1"
  | Error e -> Alcotest.failf "edit: %s" (Live_session.error_to_string e)

let test_restart_reruns_init () =
  (* init bodies re-run on restart: the gallery's visit counter ticks *)
  let t = restart_of ~width:46 Live_workloads.Gallery.source in
  check_contains "visit 1" (Live_baseline.Restart_runtime.screenshot t)
    "visit 1";
  ignore
    (ok_restart "update"
       (Live_baseline.Restart_runtime.update t
          (ok_compile Live_workloads.Gallery.source).core));
  (* a fresh store starts at 0, init increments to 1 — but the point is
     the *work* was redone; the counter itself restarts *)
  check_contains "init re-ran from scratch"
    (Live_baseline.Restart_runtime.screenshot t) "visit 1"

(* -- retained-mode comparator --------------------------------------- *)

let test_retained_staleness () =
  (* Sec. 2: in a retained UI, "changing the code that initially builds
     this widget tree is meaningless as that code has already executed"
     — the widget keeps showing the old model until someone writes
     update code *)
  let open Live_baseline.Retained in
  let model = ref 0 in
  let label = make ~text:(Printf.sprintf "count: %d" !model) () in
  let root = make ~children:[ label ] () in
  check_contains "initial" (render root) "count: 0";
  (* the model changes; the retained view is now stale *)
  model := 5;
  check_contains "stale view" (render root) "count: 0";
  (* the programmer must hand-write the view update (the view-update
     problem the paper cites) *)
  set_text label (Printf.sprintf "count: %d" !model);
  check_contains "manually refreshed" (render root) "count: 5"

let test_retained_dirty_tracking () =
  let open Live_baseline.Retained in
  let a = make ~text:"a" () in
  let b = make ~text:"b" () in
  let root = make ~children:[ a; b ] () in
  clean root;
  Alcotest.(check int) "all clean" 0 (dirty_count root);
  set_text a "a2";
  Alcotest.(check int) "one dirty" 1 (dirty_count root);
  add_child root (make ~text:"c" ());
  Alcotest.(check int) "parent and the new child dirty" 3 (dirty_count root)

let test_retained_renders_via_same_painter () =
  let open Live_baseline.Retained in
  let w =
    make ~border:true
      ~children:[ make ~text:"inner" () ]
      ()
  in
  let shot = render ~width:10 w in
  check_contains "border" shot "+--------+";
  check_contains "content" shot "inner"

let suite =
  [
    case "restart replays the trace to rebuild state" test_restart_loses_state;
    case "restart trace records all interactions"
      test_restart_trace_records_everything;
    case "replay diverges when the layout changes" test_restart_replay_diverges_on_layout_change;
    case "live absorbs the same change" test_live_absorbs_the_same_change;
    case "restart re-runs init bodies" test_restart_reruns_init;
    case "retained views go stale" test_retained_staleness;
    case "retained dirty tracking" test_retained_dirty_tracking;
    case "retained renders via the same painter" test_retained_renders_via_same_painter;
  ]
