(** Painting a layout tree into a {!Framebuffer}.

    Paint order is parent-first: a box fills its background, draws its
    border, then paints its text and children over it, so nested boxes
    naturally override inherited styling.  Foreground color inherits
    down the tree; background does not need to (the parent already
    painted those cells).

    {b Damage-tracked repainting} ({!paint_damaged}): instead of
    repainting every cell each frame, diff the new layout tree against
    the previous one, mark the row spans that differ as dirty, start
    from the previous framebuffer, clear only the dirty rows and
    repaint with a row mask.  Clean rows keep the previous frame's
    cells verbatim; nodes whose span misses every dirty row are skipped
    wholesale, so the repaint cost tracks the size of the change, not
    the size of the screen.  Correctness: the diff marks (in both old
    and new coordinates) every row any layout difference touches, and
    within a dirty row all intersecting nodes repaint in full paint
    order — so dirty rows equal a full paint and clean rows were equal
    already. *)

(** [rows]: damage mask — when given, only marked rows are written and
    nodes whose vertical span contains no marked row are skipped. *)
let rec paint (fb : Framebuffer.t) ?rows ?(fg = Color.Default)
    (n : Layout.node) : unit =
  let span_live =
    match rows with
    | None -> true
    | Some m ->
        let y0 = max 0 n.Layout.outer.Geometry.y in
        let y1 =
          min (Array.length m - 1)
            (n.Layout.outer.Geometry.y + n.Layout.outer.Geometry.h - 1)
        in
        let rec any y = y <= y1 && (m.(y) || any (y + 1)) in
        any y0
  in
  if span_live then begin
    let style = n.Layout.style in
    if style.Style.background <> Color.Default then
      Framebuffer.fill_rect fb ?rows n.Layout.frame
        ~bg:style.Style.background;
    if style.Style.border then begin
      let border_fg =
        if style.Style.color <> Color.Default then style.Style.color else fg
      in
      Framebuffer.draw_border fb ?rows n.Layout.frame ~fg:border_fg ()
    end;
    let fg =
      if style.Style.color <> Color.Default then style.Style.color else fg
    in
    let clip_bottom = n.Layout.frame.Geometry.y + n.Layout.frame.Geometry.h in
    List.iter
      (fun item ->
        match item with
        | Layout.Text { lines; rect; style = tstyle } ->
            let tfg =
              if tstyle.Style.color <> Color.Default then tstyle.Style.color
              else fg
            in
            let bold = tstyle.Style.bold || tstyle.Style.fontsize > 1 in
            List.iteri
              (fun i line ->
                let y = rect.Geometry.y + (i * tstyle.Style.fontsize) in
                if y < clip_bottom then
                  Framebuffer.draw_text fb ?rows ~x:rect.Geometry.x ~y
                    ~max_x:(rect.Geometry.x + rect.Geometry.w)
                    ~fg:tfg ~bold line)
              lines
        | Layout.Child c -> paint fb ?rows ~fg c)
      n.Layout.items
  end

(* ------------------------------------------------------------------ *)
(* Damage tracking                                                     *)
(* ------------------------------------------------------------------ *)

(** Damage statistics of one {!paint_damaged} call. *)
type damage = {
  repainted_rows : int;  (** rows cleared and repainted *)
  total_rows : int;  (** framebuffer height *)
  full : bool;  (** height changed: whole-frame repaint *)
}

let mark_span (rows : bool array) (r : Geometry.rect) : unit =
  let y1 = min (Array.length rows - 1) (r.Geometry.y + r.Geometry.h - 1) in
  for y = max 0 r.Geometry.y to y1 do
    rows.(y) <- true
  done

(** A node's own painted output (background, border, and descent
    decisions) is determined by these fields; items are diffed
    separately. *)
let shallow_equal (a : Layout.node) (b : Layout.node) : bool =
  Option.equal Live_core.Srcid.equal a.Layout.srcid b.Layout.srcid
  && Style.equal a.Layout.style b.Layout.style
  && Geometry.equal a.Layout.outer b.Layout.outer
  && Geometry.equal a.Layout.frame b.Layout.frame
  && Geometry.equal a.Layout.inner b.Layout.inner

let mark_item (rows : bool array) (it : Layout.item) : unit =
  match it with
  | Layout.Text { rect; _ } -> mark_span rows rect
  | Layout.Child c -> mark_span rows c.Layout.outer

(** Mark every row any difference between the two trees touches, in
    both old and new coordinates — the conservative damage set. *)
let rec mark_damage (rows : bool array) (a : Layout.node) (b : Layout.node) :
    unit =
  if a == b then () (* reused wholesale: no damage, in constant time *)
  else if not (shallow_equal a b) then begin
    mark_span rows a.Layout.outer;
    mark_span rows b.Layout.outer
  end
  else begin
    let rec go xs ys =
      match (xs, ys) with
      | [], [] -> ()
      | x :: xs', y :: ys' -> (
          match (x, y) with
          | Layout.Child ca, Layout.Child cb ->
              mark_damage rows ca cb;
              go xs' ys'
          | _, _ ->
              if not (Layout.item_equal x y) then begin
                mark_item rows x;
                mark_item rows y
              end;
              go xs' ys')
      | rest, [] | [], rest -> List.iter (mark_item rows) rest
    in
    go a.Layout.items b.Layout.items
  end

(** Paint [root] by repainting only the rows on which it differs from
    the previous frame [(prev_root, prev_fb)].  The result is
    cell-identical to a full {!paint} of [root] into a fresh buffer.
    Falls back to a full repaint when the frame height changed. *)
let paint_damaged ~(prev : Layout.node * Framebuffer.t) ?(fg = Color.Default)
    (root : Layout.node) : Framebuffer.t * damage =
  let prev_root, prev_fb = prev in
  let height = max 1 (Layout.total_height root) in
  let width = Framebuffer.width prev_fb in
  if height <> Framebuffer.height prev_fb then begin
    let fb = Framebuffer.create ~width ~height in
    paint fb ~fg root;
    (fb, { repainted_rows = height; total_rows = height; full = true })
  end
  else begin
    let rows = Array.make height false in
    mark_damage rows prev_root root;
    let dirty = Array.fold_left (fun n d -> if d then n + 1 else n) 0 rows in
    if dirty = 0 then
      (prev_fb, { repainted_rows = 0; total_rows = height; full = false })
    else begin
      let fb = Framebuffer.copy prev_fb in
      Array.iteri (fun y d -> if d then Framebuffer.clear_row fb y) rows;
      paint fb ~rows ~fg root;
      (fb, { repainted_rows = dirty; total_rows = height; full = false })
    end
  end

(** Lay out and paint a page's box content.  Returns the framebuffer
    and the layout tree (for hit-testing and navigation). *)
let render_page ?cache ?(width = 48) (b : Live_core.Boxcontent.t) :
    Framebuffer.t * Layout.node =
  let root = Layout.layout_page ?cache ~width b in
  let height = max 1 (Layout.total_height root) in
  let fb = Framebuffer.create ~width ~height in
  paint fb root;
  (fb, root)

(** Plain-text screenshot of box content — the golden-test format. *)
let screenshot ?width (b : Live_core.Boxcontent.t) : string =
  let fb, _ = render_page ?width b in
  Framebuffer.to_text fb

(** ANSI screenshot for terminals. *)
let screenshot_ansi ?width (b : Live_core.Boxcontent.t) : string =
  let fb, _ = render_page ?width b in
  Framebuffer.to_ansi fb

(** Screenshot of a system state's display; [⊥] renders as a marker. *)
let screenshot_state ?width (st : Live_core.State.t) : string =
  match st.Live_core.State.display with
  | Live_core.State.Invalid -> "<display invalid>\n"
  | Live_core.State.Shown b -> screenshot ?width b
