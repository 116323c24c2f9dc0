(** The interactive session: coordinate taps, back, updates, trace
    recording. *)

open Live_runtime
open Helpers

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_boot_and_screenshot () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  Alcotest.(check bool) "shows the counter" true
    (contains (Session.screenshot s) "taps: 0")

let test_tap_by_coordinates () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  (* the bordered counter box occupies the top rows; (2, 1) is inside *)
  (match ok_machine "tap" (Session.tap s ~x:2 ~y:1) with
  | Session.Tapped -> ()
  | Session.No_handler -> Alcotest.fail "expected a handler at (2,1)");
  Alcotest.(check bool) "incremented" true
    (contains (Session.screenshot s) "taps: 1")

let test_tap_missing_handler () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  (* the trailing caption has no handler *)
  let h = String.split_on_char '\n' (Session.screenshot s) in
  let last_row = List.length h - 2 in
  (match ok_machine "tap" (Session.tap s ~x:0 ~y:last_row) with
  | Session.No_handler -> ()
  | Session.Tapped -> Alcotest.fail "caption is not tappable");
  Alcotest.(check bool) "unchanged" true
    (contains (Session.screenshot s) "taps: 0")

let test_trace_records_everything () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  ignore (ok_machine "tap" (Session.tap s ~x:2 ~y:1));
  ignore (ok_machine "tap" (Session.tap s ~x:0 ~y:99));
  ok_machine "back" (Session.back s);
  Alcotest.(check int) "three interactions" 3 (Trace.length (Session.trace s));
  match Session.trace s with
  | [ Trace.Tap { x = 2; y = 1 }; Trace.Tap { x = 0; y = 99 }; Trace.Back ] ->
      ()
  | t -> Alcotest.failf "unexpected trace: %a" Trace.pp t

let test_update_reports_fixup () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  ignore (ok_machine "tap" (Session.tap s ~x:2 ~y:1));
  (* new code drops the counter global *)
  let c2 =
    ok_compile
      "page start()\ninit { }\nrender { boxed { post \"no counter\" } }"
  in
  let report =
    ok_machine "update" (Session.update s c2.Live_surface.Compile.core)
  in
  Alcotest.(check (list string)) "counter dropped" [ "counter" ]
    report.Live_core.Fixup.dropped_globals;
  Alcotest.(check bool) "new view" true
    (contains (Session.screenshot s) "no counter")

let test_navigation_between_pages () =
  let s = session_of ~width:30 (Live_workloads.Synthetic.page_chain ~n:3) in
  Alcotest.(check bool) "page 0" true (contains (Session.screenshot s) "page 0");
  ignore (ok_machine "tap" (Session.tap s ~x:1 ~y:0));
  Alcotest.(check bool) "page 1" true (contains (Session.screenshot s) "page 1");
  ignore (ok_machine "tap" (Session.tap s ~x:1 ~y:0));
  Alcotest.(check bool) "page 2" true (contains (Session.screenshot s) "page 2");
  ok_machine "back" (Session.back s);
  Alcotest.(check bool) "back to 1" true (contains (Session.screenshot s) "page 1");
  match Session.current_page s with
  | Some ("p1", _) -> ()
  | Some (p, _) -> Alcotest.failf "unexpected page %s" p
  | None -> Alcotest.fail "no page"

let test_layout_cached_until_transition () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  let l1 = Session.layout s in
  let l2 = Session.layout s in
  Alcotest.(check bool) "same layout object" true
    (match (l1, l2) with Some a, Some b -> a == b | _ -> false);
  ignore (ok_machine "tap" (Session.tap s ~x:2 ~y:1));
  let l3 = Session.layout s in
  Alcotest.(check bool) "recomputed after transition" true
    (match (l1, l3) with Some a, Some b -> not (a == b) | _ -> false)

(* every session keeps its last frame: reading an unchanged plain
   session twice repaints nothing and returns the same row strings *)
let test_plain_rows_painted_once () =
  let s = session_of ~width:20 Live_workloads.Counter.source in
  let r1 = Session.rows s in
  let r2 = Session.rows s in
  Alcotest.(check bool) "physically equal rows" true
    (Array.length r1 = Array.length r2 && Array.for_all2 ( == ) r1 r2);
  Alcotest.(check string) "screenshot is the rows joined"
    (String.concat "" (Array.to_list (Array.map (fun r -> r ^ "\n") r1)))
    (Session.screenshot s);
  ignore (ok_machine "tap" (Session.tap s ~x:2 ~y:1));
  Alcotest.(check bool) "a tap repaints" true
    (contains (String.concat "\n" (Array.to_list (Session.rows s))) "taps: 1")

let suite =
  [
    case "boot and screenshot" test_boot_and_screenshot;
    case "tap by coordinates" test_tap_by_coordinates;
    case "taps outside handlers do nothing" test_tap_missing_handler;
    case "trace records all interactions" test_trace_records_everything;
    case "update reports the fixup" test_update_reports_fixup;
    case "plain sessions paint each display once" test_plain_rows_painted_once;
    case "page navigation" test_navigation_between_pages;
    case "layout caching per display" test_layout_cached_until_transition;
  ]
