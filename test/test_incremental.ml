(** The incremental-rendering optimization (Sec. 5: "reuse box tree
    elements that have not changed"): transparency (sessions with the
    [~cache] pipeline and plain ones pixel-identical) and effectiveness
    (an unchanged row keeps its layout node across a tap). *)

open Live_runtime
open Helpers
module Layout = Live_ui.Layout

let rows_src n = Live_workloads.Synthetic.flat_rows ~n

let test_transparent_over_interactions () =
  let plain = session_of ~width:40 (rows_src 30) in
  let cached = session_of ~width:40 ~cache:true (rows_src 30) in
  let check_same what =
    Alcotest.(check string) what (Session.screenshot plain)
      (Session.screenshot cached)
  in
  check_same "initial render";
  (* tap row 7 in both: selection highlight moves *)
  ignore (ok_machine "tap" (Session.tap plain ~x:2 ~y:7));
  ignore (ok_machine "tap" (Session.tap cached ~x:2 ~y:7));
  check_same "after tap";
  ignore (ok_machine "tap" (Session.tap plain ~x:2 ~y:20));
  ignore (ok_machine "tap" (Session.tap cached ~x:2 ~y:20));
  check_same "after second tap"

(* A tap on independent_rows re-renders one row; the render cache
   splices the others as the very same values, and previous-frame
   layout reuse hands back their nodes. *)
let test_reuse_keeps_unchanged_rows () =
  let s =
    session_of ~width:40 ~cache:true
      (Live_workloads.Synthetic.independent_rows ~n:50)
  in
  let rows () =
    match Session.layout s with
    | Some { Layout.items = [ Layout.Child page ]; _ } ->
        List.filter_map
          (function Layout.Child c -> Some c | Layout.Text _ -> None)
          page.Layout.items
    | _ -> Alcotest.fail "expected one page box"
  in
  let before = rows () in
  ignore (ok_machine "tap" (Session.tap s ~x:2 ~y:7));
  let after = rows () in
  Alcotest.(check int) "rows" 50 (List.length after);
  List.iteri
    (fun i (a, b) ->
      if i = 7 then
        Alcotest.(check bool) "the tapped row is laid out again" false (a == b)
      else if not (a == b) then Alcotest.failf "row %d was laid out again" i)
    (List.combine before after)

let test_transparent_across_code_update () =
  let plain = session_of ~width:40 (rows_src 20) in
  let cached = session_of ~width:40 ~cache:true (rows_src 20) in
  let v2 = (ok_compile (rows_src 25)).core in
  ignore (ok_machine "update" (Session.update plain v2));
  ignore (ok_machine "update" (Session.update cached v2));
  Alcotest.(check string) "after update" (Session.screenshot plain)
    (Session.screenshot cached)

let test_transparent_on_workloads () =
  List.iter
    (fun (name, src) ->
      let plain = session_of ~width:46 src in
      let cached = session_of ~width:46 ~cache:true src in
      Alcotest.(check string) name (Session.screenshot plain)
        (Session.screenshot cached))
    [
      ("mortgage", Live_workloads.Mortgage.source ~listings:6 ());
      ("todo", Live_workloads.Todo.source);
      ("gallery", Live_workloads.Gallery.source);
      ("nested", Live_workloads.Synthetic.nested ~depth:3 ~fanout:3);
    ]

let suite =
  [
    case "pixel-identical across interactions" test_transparent_over_interactions;
    case "unchanged rows keep their layout nodes" test_reuse_keeps_unchanged_rows;
    case "pixel-identical across code updates" test_transparent_across_code_update;
    case "pixel-identical on all workloads" test_transparent_on_workloads;
  ]
