(** The layout engine: box content (Fig. 7's [B]) to positioned
    rectangles.

    The model: every box has an {e outer} rectangle (including margin),
    a {e frame} (the painted area: background and border) and an
    {e inner} content rectangle (frame minus border and padding).  A
    box lays out its items — posted text leaves and nested boxes — in
    document order, stacked vertically (the default, as in the paper)
    or horizontally.

    Sizing follows the familiar block model: children of a vertical box
    stretch to the available width; children of a horizontal box
    shrink to their natural width; [width]/[height] attributes
    override.  Text wraps at the available width.  Heights are always
    natural (content-determined) unless fixed.

    The resulting tree keeps, for every box, the {!Live_core.Srcid.t}
    of the [boxed] statement that created it and the box path into the
    box content — the data UI-Code Navigation needs. *)

module Boxcontent = Live_core.Boxcontent
module Pretty = Live_core.Pretty
open Geometry

type item =
  | Text of {
      lines : string list;
      rect : rect;
      style : Style.t;  (** the owning box's style (color, bold, ...) *)
    }
  | Child of node

and node = {
  srcid : Live_core.Srcid.t option;
  bpath : int list;  (** box path within the page's box content *)
  style : Style.t;
  outer : rect;
  frame : rect;
  inner : rect;
  items : item list;
}

(** Greedy word-wrap; hard-breaks words longer than the width.  Lines
    that already fit are kept verbatim (preserving leading and internal
    spaces — they matter in horizontal layouts). *)
let rec wrap_text (width : int) (s : string) : string list =
  let width = max 1 width in
  let fits =
    String.split_on_char '\n' s
    |> List.for_all (fun l -> String.length l <= width)
  in
  if fits then String.split_on_char '\n' s
  else wrap_text_greedy width s

and wrap_text_greedy (width : int) (s : string) : string list =
  let words =
    String.split_on_char ' ' s
    |> List.concat_map (fun w ->
           (* explicit newlines split lines *)
           String.split_on_char '\n' w
           |> List.mapi (fun i p -> if i = 0 then (false, p) else (true, p)))
  in
  let lines = ref [] in
  let cur = Buffer.create width in
  let flush () =
    lines := Buffer.contents cur :: !lines;
    Buffer.clear cur
  in
  let add_word w =
    let rec hard w =
      if String.length w > width then begin
        if Buffer.length cur > 0 then flush ();
        Buffer.add_string cur (String.sub w 0 width);
        flush ();
        hard (String.sub w width (String.length w - width))
      end
      else if Buffer.length cur = 0 then Buffer.add_string cur w
      else if Buffer.length cur + 1 + String.length w <= width then begin
        Buffer.add_char cur ' ';
        Buffer.add_string cur w
      end
      else begin
        flush ();
        Buffer.add_string cur w
      end
    in
    hard w
  in
  List.iter
    (fun (newline, w) ->
      if newline then flush ();
      if w <> "" then add_word w)
    words;
  flush ();
  let result = List.rev !lines in
  match result with [] -> [ "" ] | _ -> result

(** Natural (unwrapped) width of a text. *)
let text_natural_width (s : string) : int =
  String.split_on_char '\n' s
  |> List.fold_left (fun m line -> max m (String.length line)) 0

(* Natural content width of a box: the width it would occupy without
   wrapping, used to shrink-fit children of horizontal boxes. *)
let rec natural_width (b : Boxcontent.t) : int =
  let style = Style.of_box b in
  match style.Style.width with
  | Some w -> w + (2 * style.Style.margin)
  | None ->
      let chrome = 2 * (style.Style.padding + if style.Style.border then 1 else 0) in
      let widths =
        List.filter_map
          (function
            | Boxcontent.Leaf v ->
                Some (text_natural_width (Pretty.display_string v))
            | Boxcontent.Box (_, inner) -> Some (natural_width inner)
            | Boxcontent.Attr _ -> None)
          b
      in
      let content =
        match style.Style.direction with
        | Style.Vertical -> List.fold_left max 0 widths
        | Style.Horizontal -> List.fold_left ( + ) 0 widths
      in
      content + chrome + (2 * style.Style.margin)

let align_offset (align : Style.align) (avail : int) (w : int) : int =
  match align with
  | Style.Left -> 0
  | Style.Center -> max 0 ((avail - w) / 2)
  | Style.Right -> max 0 (avail - w)

(** A layout cache, keyed by (content hash, available width, stretch):
    the Sec. 5 optimization — "reuse box tree elements that have not
    changed".  Cached subtrees are stored normalized to the origin and
    rebased on reuse, so a row that reappears at a different vertical
    offset still hits. *)
type cache = {
  tbl : (int * int * int * bool, Boxcontent.t * node) Hashtbl.t;
      (** key: content hash, srcid (-1 for none), avail width, stretch;
          the stored content is compared with {!Boxcontent.equal} on
          every hit, so hash collisions cannot corrupt the display *)
  mutable hits : int;
  mutable misses : int;
}

let create_cache () : cache = { tbl = Hashtbl.create 256; hits = 0; misses = 0 }

let cache_stats (c : cache) = (c.hits, c.misses)

let rec rebase ~(dx : int) ~(dy : int) ~(prefix : int list) (n : node) : node
    =
  if dx = 0 && dy = 0 && prefix = [] then n
  else
    let move (r : rect) = { r with x = r.x + dx; y = r.y + dy } in
    {
      n with
      bpath = prefix @ n.bpath;
      outer = move n.outer;
      frame = move n.frame;
      inner = move n.inner;
      items =
        List.map
          (function
            | Text t -> Text { t with rect = move t.rect }
            | Child c -> Child (rebase ~dx ~dy ~prefix c))
          n.items;
    }

(** Previous-frame layout reuse by {e physical} identity, for sessions
    whose box trees come out of {!Live_core.Render_cache}: the render
    cache splices unchanged subtrees as the very same values, so a
    subtree that is [==] to what stood at the same box path last frame
    (with the same available width, stretch mode and srcid) lays out to
    the same node, translated.  The state is the previous frame itself
    — its width, box content and layout tree — walked in lockstep with
    the new frame: child [i] of a box is compared with child [i] of the
    same box last frame.  Unlike the structural {!cache} this needs no
    hashing and no deep equality, and it holds exactly one frame. *)
type reuse = { mutable last : (int * Boxcontent.t * node) option }

let create_reuse () : reuse = { last = None }

(** Lay out one box at absolute position [(x, y)] with [avail] outer
    width.  [stretch] forces the frame to fill the available width
    (vertical-stack children); otherwise the box shrinks to content. *)
let rec layout_box ?cache ~(x : int) ~(y : int) ~(avail : int)
    ~(stretch : bool) ~(bpath : int list)
    (srcid : Live_core.Srcid.t option) (b : Boxcontent.t) : node =
  match cache with
  | None -> layout_box_raw ~x ~y ~avail ~stretch ~bpath srcid b
  | Some c -> (
      let id =
        match srcid with Some i -> Live_core.Srcid.to_int i | None -> -1
      in
      let key = (Boxcontent.hash b, id, avail, stretch) in
      match Hashtbl.find_opt c.tbl key with
      | Some (b0, n0) when Boxcontent.equal b0 b ->
          c.hits <- c.hits + 1;
          rebase ~dx:x ~dy:y ~prefix:bpath n0
      | _ ->
          c.misses <- c.misses + 1;
          let n0 =
            layout_box_raw ~cache:c ~x:0 ~y:0 ~avail ~stretch ~bpath:[] srcid b
          in
          Hashtbl.replace c.tbl key (b, n0);
          rebase ~dx:x ~dy:y ~prefix:bpath n0)

(* [prev] is the previous frame's content and node at this box path:
   its children are walked in lockstep with [b]'s for physical reuse,
   which takes the place of the structural [cache] (never both). *)
and layout_box_raw ?cache ?prev ~(x : int) ~(y : int) ~(avail : int)
    ~(stretch : bool) ~(bpath : int list)
    (srcid : Live_core.Srcid.t option) (b : Boxcontent.t) : node =
  let style = Style.of_box b in
  let margin = style.Style.margin in
  let chrome = style.Style.padding + if style.Style.border then 1 else 0 in
  (* decide the frame width *)
  let frame_w =
    match style.Style.width with
    | Some w -> max 0 (min w (avail - (2 * margin)))
    | None ->
        if stretch then max 0 (avail - (2 * margin))
        else
          let nat = natural_width b - (2 * margin) in
          max 0 (min nat (avail - (2 * margin)))
  in
  let inner_w = max 0 (frame_w - (2 * chrome)) in
  let inner_x = x + margin + chrome in
  let inner_y = y + margin + chrome in
  (* lay out items *)
  let items = ref [] in
  let cursor_x = ref inner_x in
  let cursor_y = ref inner_y in
  let max_row_h = ref 0 in
  let box_index = ref 0 in
  let horizontal = style.Style.direction = Style.Horizontal in
  (* the previous frame's boxes and nodes not yet paired with a child *)
  let pboxes = ref (match prev with Some (pb, _) -> pb | None -> []) in
  let pitems = ref (match prev with Some (_, pn) -> pn.items | None -> []) in
  let rec next_pbox () =
    match !pboxes with
    | [] -> None
    | it :: rest -> (
        pboxes := rest;
        match it with Boxcontent.Box (id, c) -> Some (id, c) | _ -> next_pbox ())
  in
  let rec next_pnode () =
    match !pitems with
    | [] -> None
    | it :: rest -> (
        pitems := rest;
        match it with Child n -> Some n | Text _ -> next_pnode ())
  in
  (* Child [idx] of this box: reused from child [idx] of the previous
     frame's box when the content is physically the same and the
     layout inputs agree (a child's avail and stretch follow from its
     parent's direction, inner rectangle and the child's own left
     edge), else laid out against it in lockstep. *)
  let child ~x ~y ~avail ~stretch ~idx child_id cb =
    match prev with
    | None ->
        layout_box ?cache ~x ~y ~avail ~stretch ~bpath:(bpath @ [ idx ])
          child_id cb
    | Some (_, pparent) -> (
        match (next_pbox (), next_pnode ()) with
        | Some (pid, pb), Some pn ->
            let phoriz = pparent.style.Style.direction = Style.Horizontal in
            let pavail =
              if phoriz then
                max 0 (pparent.inner.x + pparent.inner.w - pn.outer.x)
              else pparent.inner.w
            in
            if
              pb == cb && pavail = avail && phoriz = not stretch
              && Option.equal Live_core.Srcid.equal pid child_id
            then rebase ~dx:(x - pn.outer.x) ~dy:(y - pn.outer.y) ~prefix:[] pn
            else
              layout_box_raw ~prev:(pb, pn) ~x ~y ~avail ~stretch
                ~bpath:(bpath @ [ idx ]) child_id cb
        | _ ->
            layout_box_raw ~x ~y ~avail ~stretch ~bpath:(bpath @ [ idx ])
              child_id cb)
  in
  List.iter
    (fun it ->
      match it with
      | Boxcontent.Attr _ -> ()
      | Boxcontent.Leaf v ->
          let s = Pretty.display_string v in
          if horizontal then begin
            let w = min (text_natural_width s) (max 0 (inner_x + inner_w - !cursor_x)) in
            let lines = wrap_text w s in
            let h = List.length lines * style.Style.fontsize in
            let r = make ~x:!cursor_x ~y:!cursor_y ~w ~h in
            items := Text { lines; rect = r; style } :: !items;
            cursor_x := !cursor_x + w;
            max_row_h := max !max_row_h h
          end
          else begin
            let lines = wrap_text inner_w s in
            let w = List.fold_left (fun m l -> max m (String.length l)) 0 lines in
            let h = List.length lines * style.Style.fontsize in
            let ax = inner_x + align_offset style.Style.align inner_w w in
            let r = make ~x:ax ~y:!cursor_y ~w ~h in
            items := Text { lines; rect = r; style } :: !items;
            cursor_y := !cursor_y + h
          end
      | Boxcontent.Box (child_id, cb) ->
          let idx = !box_index in
          incr box_index;
          if horizontal then begin
            let n =
              child ~x:!cursor_x ~y:!cursor_y
                ~avail:(max 0 (inner_x + inner_w - !cursor_x))
                ~stretch:false ~idx child_id cb
            in
            items := Child n :: !items;
            cursor_x := !cursor_x + n.outer.w;
            max_row_h := max !max_row_h n.outer.h
          end
          else begin
            let n =
              child ~x:inner_x ~y:!cursor_y ~avail:inner_w ~stretch:true ~idx
                child_id cb
            in
            items := Child n :: !items;
            cursor_y := !cursor_y + n.outer.h
          end)
    b;
  let content_h =
    if horizontal then !max_row_h else !cursor_y - inner_y
  in
  let frame_h =
    match style.Style.height with
    | Some h -> h
    | None -> content_h + (2 * chrome)
  in
  let frame = make ~x:(x + margin) ~y:(y + margin) ~w:frame_w ~h:frame_h in
  let outer =
    make ~x ~y ~w:(frame_w + (2 * margin)) ~h:(frame_h + (2 * margin))
  in
  let inner = inset frame chrome in
  { srcid; bpath; style; outer; frame; inner; items = List.rev !items }

(** Lay out a page's whole box content under the implicit top-level
    box ("our model has an implicit top-level box", Sec. 4.3).
    [reuse] holds the previous frame: the layout walks it in lockstep
    and leaves this frame behind in its place. *)
let layout_page ?cache ?reuse ?(width = 48) (b : Boxcontent.t) : node =
  match reuse with
  | None ->
      layout_box ?cache ~x:0 ~y:0 ~avail:width ~stretch:true ~bpath:[] None b
  | Some r ->
      let n =
        match r.last with
        | Some (w, pb, pn) when w = width ->
            if pb == b then pn
            else
              layout_box_raw ~prev:(pb, pn) ~x:0 ~y:0 ~avail:width
                ~stretch:true ~bpath:[] None b
        | _ ->
            layout_box_raw ~x:0 ~y:0 ~avail:width ~stretch:true ~bpath:[] None b
      in
      r.last <- Some (width, b, n);
      n

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** Structural equality of laid-out trees — what the damage-tracked
    painter diffs.  Two equal nodes paint identical cells.  Physical
    equality short-circuits, so subtrees reused between frames compare
    in constant time. *)
let rec node_equal (a : node) (b : node) : bool =
  a == b
  || Option.equal Live_core.Srcid.equal a.srcid b.srcid
     && a.bpath = b.bpath
     && Style.equal a.style b.style
     && Geometry.equal a.outer b.outer
     && Geometry.equal a.frame b.frame
     && Geometry.equal a.inner b.inner
     && List.equal item_equal a.items b.items

and item_equal (a : item) (b : item) : bool =
  a == b
  ||
  match (a, b) with
  | ( Text { lines = la; rect = ra; style = sa },
      Text { lines = lb; rect = rb; style = sb } ) ->
      List.equal String.equal la lb
      && Geometry.equal ra rb && Style.equal sa sb
  | Child ca, Child cb -> node_equal ca cb
  | (Text _ | Child _), _ -> false

let rec iter_nodes (f : node -> unit) (n : node) : unit =
  f n;
  List.iter (function Child c -> iter_nodes f c | Text _ -> ()) n.items

let rec fold_nodes (f : 'a -> node -> 'a) (acc : 'a) (n : node) : 'a =
  let acc = f acc n in
  List.fold_left
    (fun acc it -> match it with Child c -> fold_nodes f acc c | Text _ -> acc)
    acc n.items

(** All nodes whose frame contains the point, outermost first. *)
let nodes_at (n : node) ~(x : int) ~(y : int) : node list =
  let rec go acc n =
    if contains n.frame ~x ~y then
      let acc = n :: acc in
      List.fold_left
        (fun acc it -> match it with Child c -> go acc c | Text _ -> acc)
        acc n.items
    else acc
  in
  List.rev (go [] n)

(** The deepest box at the point carrying an [ontap] handler — the
    implementation counterpart of the TAP rule's [[ontap = v] ∈ B]. *)
let handler_at (n : node) ~(x : int) ~(y : int) : Live_core.Ast.value option
    =
  nodes_at n ~x ~y
  |> List.rev
  |> List.find_map (fun n -> n.style.Style.handler)

(** The deepest box at the point that has a source id — what the live
    view selects when the programmer taps a box (Sec. 3). *)
let srcid_at (n : node) ~(x : int) ~(y : int) : Live_core.Srcid.t option =
  nodes_at n ~x ~y |> List.rev |> List.find_map (fun n -> n.srcid)

(** Frames of every box created by the given boxed statement — the
    code-to-live-view direction of UI-Code Navigation; a boxed
    statement in a loop yields several frames. *)
let frames_of_srcid (n : node) (id : Live_core.Srcid.t) : rect list =
  fold_nodes
    (fun acc m ->
      match m.srcid with
      | Some i when Live_core.Srcid.equal i id -> m.frame :: acc
      | _ -> acc)
    [] n
  |> List.rev

let count_nodes (n : node) : int = fold_nodes (fun a _ -> a + 1) 0 n

let total_height (n : node) : int = n.outer.h
