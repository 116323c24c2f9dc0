(** The layout engine: wrapping, stacking, chrome (margin, padding,
    border), shrink-vs-stretch sizing, hit-testing, and the layout
    cache. *)

open Live_core
open Live_ui
open Helpers

let leaf s = Boxcontent.Leaf (Ast.VStr s)
let attr a v = Boxcontent.Attr (a, v)
let nattr a f = attr a (Ast.VNum f)
let sattr a s = attr a (Ast.VStr s)
let box ?id items = Boxcontent.Box (Option.map Srcid.of_int id, items)

let test_wrap_text () =
  Alcotest.(check (list string)) "fits verbatim" [ "  a b" ]
    (Layout.wrap_text 10 "  a b");
  Alcotest.(check (list string)) "wraps at spaces" [ "aa bb"; "cc" ]
    (Layout.wrap_text 5 "aa bb cc");
  Alcotest.(check (list string)) "hard-breaks long words" [ "abcde"; "fg" ]
    (Layout.wrap_text 5 "abcdefg");
  Alcotest.(check (list string)) "explicit newlines" [ "a"; "b" ]
    (Layout.wrap_text 10 "a\nb");
  Alcotest.(check (list string)) "empty" [ "" ] (Layout.wrap_text 5 "")

let test_vertical_stacking () =
  let root = Layout.layout_page ~width:10 [ box [ leaf "a" ]; box [ leaf "b" ] ] in
  match root.Layout.items with
  | [ Layout.Child c1; Layout.Child c2 ] ->
      Alcotest.(check int) "first at top" 0 c1.Layout.outer.Geometry.y;
      Alcotest.(check int) "second below" 1 c2.Layout.outer.Geometry.y;
      (* vertical children stretch *)
      Alcotest.(check int) "stretch" 10 c1.Layout.frame.Geometry.w
  | _ -> Alcotest.fail "expected two children"

let test_horizontal_shrink () =
  let root =
    Layout.layout_page ~width:20
      [
        box
          [
            sattr "direction" "horizontal";
            box [ leaf "ab" ];
            box [ leaf "cdef" ];
          ];
      ]
  in
  match root.Layout.items with
  | [ Layout.Child row ] -> (
      match row.Layout.items with
      | [ Layout.Child a; Layout.Child b ] ->
          Alcotest.(check int) "shrink to text" 2 a.Layout.frame.Geometry.w;
          Alcotest.(check int) "next starts after" 2 b.Layout.frame.Geometry.x;
          Alcotest.(check int) "second width" 4 b.Layout.frame.Geometry.w
      | _ -> Alcotest.fail "expected two row children")
  | _ -> Alcotest.fail "expected the row"

let test_chrome_geometry () =
  let root =
    Layout.layout_page ~width:20
      [ box [ nattr "margin" 2.0; nattr "padding" 1.0; nattr "border" 1.0; leaf "x" ] ]
  in
  match root.Layout.items with
  | [ Layout.Child c ] ->
      Alcotest.check rect "outer includes margin"
        (Geometry.make ~x:0 ~y:0 ~w:20 ~h:9)
        c.Layout.outer;
      Alcotest.check rect "frame inset by margin"
        (Geometry.make ~x:2 ~y:2 ~w:16 ~h:5)
        c.Layout.frame;
      Alcotest.check rect "inner inset by border+padding"
        (Geometry.make ~x:4 ~y:4 ~w:12 ~h:1)
        c.Layout.inner
  | _ -> Alcotest.fail "expected one child"

let test_fixed_width_height () =
  let root =
    Layout.layout_page ~width:30
      [ box [ nattr "width" 10.0; nattr "height" 3.0; leaf "x" ] ]
  in
  match root.Layout.items with
  | [ Layout.Child c ] ->
      Alcotest.(check int) "fixed width" 10 c.Layout.frame.Geometry.w;
      Alcotest.(check int) "fixed height" 3 c.Layout.frame.Geometry.h
  | _ -> Alcotest.fail "expected one child"

let test_fontsize_height () =
  let root =
    Layout.layout_page ~width:30 [ box [ nattr "fontsize" 2.0; leaf "t" ] ]
  in
  match root.Layout.items with
  | [ Layout.Child c ] ->
      Alcotest.(check int) "doubled line height" 2 c.Layout.frame.Geometry.h
  | _ -> Alcotest.fail "expected one child"

let test_text_wrap_in_narrow_box () =
  let root = Layout.layout_page ~width:6 [ box [ leaf "aa bb cc" ] ] in
  match root.Layout.items with
  | [ Layout.Child c ] ->
      Alcotest.(check int) "two lines" 2 c.Layout.frame.Geometry.h
  | _ -> Alcotest.fail "expected one child"

let handler = Ast.VLam ("_", Typ.unit_, Ast.eunit)

let tree_with_handlers =
  [
    box ~id:1 [ leaf "top"; attr "ontap" handler ];
    box ~id:2
      [
        leaf "outer";
        box ~id:3 [ leaf "inner"; attr "ontap" handler ];
      ];
  ]

let test_hit_testing () =
  let root = Layout.layout_page ~width:10 tree_with_handlers in
  (* y=0: first box (leaf "top") *)
  Alcotest.(check (option int)) "top box"
    (Some 1)
    (Option.map Srcid.to_int (Layout.srcid_at root ~x:1 ~y:0));
  (* y=2: the nested inner box *)
  Alcotest.(check (option int)) "deepest srcid wins"
    (Some 3)
    (Option.map Srcid.to_int (Layout.srcid_at root ~x:1 ~y:2));
  (* handler lookup at the inner box *)
  Alcotest.(check bool) "handler found" true
    (Option.is_some (Layout.handler_at root ~x:1 ~y:2));
  (* outside everything *)
  Alcotest.(check bool) "miss" true (Layout.srcid_at root ~x:1 ~y:99 = None)

let test_nodes_at_order () =
  let root = Layout.layout_page ~width:10 tree_with_handlers in
  let chain = Layout.nodes_at root ~x:1 ~y:2 in
  let ids =
    List.filter_map (fun (n : Layout.node) -> Option.map Srcid.to_int n.Layout.srcid) chain
  in
  Alcotest.(check (list int)) "outermost first" [ 2; 3 ] ids

let test_frames_of_srcid () =
  (* a boxed statement in a loop yields several frames *)
  let tree = [ box ~id:9 [ leaf "a" ]; box ~id:9 [ leaf "b" ]; box ~id:9 [ leaf "c" ] ] in
  let root = Layout.layout_page ~width:10 tree in
  let frames = Layout.frames_of_srcid root (Srcid.of_int 9) in
  Alcotest.(check int) "all three" 3 (List.length frames);
  Alcotest.(check (list int)) "stacked"
    [ 0; 1; 2 ]
    (List.map (fun (r : Geometry.rect) -> r.Geometry.y) frames)

let test_bpaths () =
  let root = Layout.layout_page ~width:10 tree_with_handlers in
  match root.Layout.items with
  | [ Layout.Child a; Layout.Child b ] -> (
      Alcotest.(check (list int)) "first" [ 0 ] a.Layout.bpath;
      Alcotest.(check (list int)) "second" [ 1 ] b.Layout.bpath;
      match
        List.filter_map
          (function Layout.Child c -> Some c | _ -> None)
          b.Layout.items
      with
      | [ inner ] ->
          Alcotest.(check (list int)) "nested" [ 1; 0 ] inner.Layout.bpath
      | _ -> Alcotest.fail "expected nested child")
  | _ -> Alcotest.fail "expected two children"

let test_count_nodes () =
  let root = Layout.layout_page ~width:10 tree_with_handlers in
  Alcotest.(check int) "boxes + root" 4 (Layout.count_nodes root)

(* ------------------------------------------------------------------ *)
(* Previous-frame reuse: a sequence of frames sharing subtrees          *)
(* ------------------------------------------------------------------ *)

let words = [| "a"; "bb"; "ccc"; "dd dd"; "e e e e"; "ffffffff"; "g" |]

(* A random box; a first item that is a box makes a direction flip keep
   a child's avail while its stretch changes. *)
let rec rand_box rs depth : Boxcontent.t =
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let chance p = Random.State.float rs 1.0 < p in
  let attrs =
    List.concat
      [
        (if chance 0.3 then [ sattr "direction" "horizontal" ] else []);
        (if chance 0.15 then [ nattr "width" (float_of_int (4 + Random.State.int rs 16)) ] else []);
        (if chance 0.2 then [ nattr "border" 1.0 ] else []);
        (if chance 0.2 then [ nattr "padding" 1.0 ] else []);
        (if chance 0.15 then [ nattr "margin" 1.0 ] else []);
      ]
  in
  let items =
    List.init (1 + Random.State.int rs 4) (fun _ ->
        if depth > 0 && chance 0.6 then rand_child rs (depth - 1)
        else leaf (pick words))
  in
  attrs @ items

and rand_child rs depth : Boxcontent.item =
  let id = if Random.State.bool rs then Some (Random.State.int rs 4) else None in
  box ?id (rand_box rs depth)

(* Rebuild the spine down to box [path] (indices among box children),
   sharing every other subtree physically. *)
let rec update_at path f (b : Boxcontent.t) : Boxcontent.t =
  match path with
  | [] -> f b
  | i :: rest ->
      let k = ref (-1) in
      List.map
        (function
          | Boxcontent.Box (id, c) as it ->
              incr k;
              if !k = i then Boxcontent.Box (id, update_at rest f c) else it
          | it -> it)
        b

let rec box_paths (b : Boxcontent.t) : int list list =
  []
  :: List.concat
       (List.mapi
          (fun i (_, c) -> List.map (fun p -> i :: p) (box_paths c))
          (Boxcontent.children b))

(* Apply one random edit to the box at a random path. *)
let edit rs (b, width) : Boxcontent.t * int =
  let paths = Array.of_list (box_paths b) in
  let path = paths.(Random.State.int rs (Array.length paths)) in
  let nth_box items =
    let n = List.length (Boxcontent.children items) in
    if n = 0 then None else Some (Random.State.int rs n)
  in
  (* map the [j]-th box item of a content list *)
  let map_box j f items =
    let k = ref (-1) in
    List.concat_map
      (function
        | Boxcontent.Box _ as it ->
            incr k;
            if !k = j then f it else [ it ]
        | it -> [ it ])
      items
  in
  match Random.State.int rs 8 with
  | 0 -> (update_at path (fun c -> rand_child rs 1 :: c) b, width)
  | 1 ->
      ( update_at path
          (fun c ->
            match nth_box c with None -> c | Some j -> map_box j (fun _ -> []) c)
          b,
        width )
  | 2 ->
      (* move the last box child to the front *)
      ( update_at path
          (fun c ->
            match List.rev (Boxcontent.children c) with
            | [] -> c
            | (id, last) :: _ ->
                let n = List.length (Boxcontent.children c) in
                Boxcontent.Box (id, last) :: map_box (n - 1) (fun _ -> []) c)
          b,
        width )
  | 3 ->
      (* same content, another srcid *)
      ( update_at path
          (fun c ->
            match nth_box c with
            | None -> c
            | Some j ->
                map_box j
                  (function
                    | Boxcontent.Box (id, inner) ->
                        let id' =
                          match id with
                          | Some i -> Some (Srcid.of_int (Srcid.to_int i + 1))
                          | None -> Some (Srcid.of_int 0)
                        in
                        [ Boxcontent.Box (id', inner) ]
                    | it -> [ it ])
                  c)
          b,
        width )
  | 4 -> (b, 12 + Random.State.int rs 30)
  | 5 ->
      (* flip the direction; children stay shared *)
      ( update_at path
          (fun c ->
            let h =
              match Boxcontent.own_attr "direction" c with
              | Some (Ast.VStr "horizontal") -> true
              | _ -> false
            in
            c @ [ sattr "direction" (if h then "vertical" else "horizontal") ])
          b,
        width )
  | 6 ->
      ( update_at path
          (fun c -> c @ [ leaf words.(Random.State.int rs (Array.length words)) ])
          b,
        width )
  | _ -> (b, width)

let kids (n : Layout.node) =
  List.filter_map (function Layout.Child c -> Some c | Layout.Text _ -> None)
    n.Layout.items

let prop_reuse_equals_fresh =
  qcheck ~count:300 "previous-frame reuse = fresh layout, frame after frame"
    QCheck2.Gen.(pair int (int_range 1 15))
    (fun (seed, frames) ->
      let rs = Random.State.make [| seed |] in
      let reuse = Layout.create_reuse () in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let rec go k (b, width) prev =
        let n = Layout.layout_page ~reuse ~width b in
        if not (Layout.node_equal n (Layout.layout_page ~width b)) then
          fail "frame %d: reuse layout differs from a fresh layout" k;
        (match prev with
        | Some (pb, pwidth, pn) when pwidth = width ->
            (* an unmoved, unchanged child of a vertical root is the
               previous node itself *)
            let vertical (m : Layout.node) =
              m.Layout.style.Style.direction = Style.Vertical
            in
            if vertical n && vertical pn then
              let rec walk bs pbs ns pns =
                match (bs, pbs, ns, pns) with
                | (id, c) :: bs, (pid, pc) :: pbs, m :: ns, pm :: pns ->
                    if
                      c == pc
                      && Option.equal Srcid.equal id pid
                      && m.Layout.outer.Geometry.y = pm.Layout.outer.Geometry.y
                      && not (m == pm)
                    then fail "frame %d: an unmoved child was laid out again" k;
                    walk bs pbs ns pns
                | _ -> ()
              in
              walk (Boxcontent.children b) (Boxcontent.children pb) (kids n)
                (kids pn)
        | _ -> ());
        if k < frames then go (k + 1) (edit rs (b, width)) (Some (b, width, n))
      in
      go 0 (rand_box rs 3, 30) None;
      true)

let suite =
  [
    case "wrap_text" test_wrap_text;
    case "vertical stacking stretches" test_vertical_stacking;
    case "horizontal stacking shrinks" test_horizontal_shrink;
    case "margin/padding/border geometry" test_chrome_geometry;
    case "fixed width and height" test_fixed_width_height;
    case "fontsize scales line height" test_fontsize_height;
    case "narrow boxes wrap text" test_text_wrap_in_narrow_box;
    case "hit-testing" test_hit_testing;
    case "nodes_at is outermost-first" test_nodes_at_order;
    case "frames_of_srcid finds loop instances" test_frames_of_srcid;
    case "box paths" test_bpaths;
    case "node counting" test_count_nodes;
    prop_reuse_equals_fresh;
  ]
