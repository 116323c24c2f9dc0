(** The character-cell framebuffer. *)

open Live_ui

let mk w h = Framebuffer.create ~width:w ~height:h

let test_create_blank () =
  let fb = mk 4 2 in
  Alcotest.(check string) "blank" "\n\n" (Framebuffer.to_text fb)

let test_set_get () =
  let fb = mk 4 2 in
  Framebuffer.set_char fb ~x:1 ~y:1 'x';
  Alcotest.(check char) "get" 'x' (Framebuffer.get fb ~x:1 ~y:1).Framebuffer.ch;
  Alcotest.(check string) "text" "\n x\n" (Framebuffer.to_text fb)

let test_out_of_bounds_ignored () =
  let fb = mk 2 2 in
  Framebuffer.set_char fb ~x:5 ~y:5 'x';
  Framebuffer.set_char fb ~x:(-1) ~y:0 'x';
  Alcotest.(check string) "unchanged" "\n\n" (Framebuffer.to_text fb);
  Alcotest.(check char) "oob get is blank" ' '
    (Framebuffer.get fb ~x:99 ~y:99).Framebuffer.ch

let test_draw_text_clipping () =
  let fb = mk 6 1 in
  Framebuffer.draw_text fb ~x:2 ~y:0 "hello world";
  Alcotest.(check string) "clipped at width" "  hell\n" (Framebuffer.to_text fb);
  let fb2 = mk 10 1 in
  Framebuffer.draw_text fb2 ~x:0 ~y:0 ~max_x:3 "abcdef";
  Alcotest.(check string) "clipped at max_x" "abc\n" (Framebuffer.to_text fb2)

let test_fill_and_text_compose () =
  let fb = mk 4 1 in
  Framebuffer.fill_rect fb
    (Geometry.make ~x:0 ~y:0 ~w:4 ~h:1)
    ~bg:(Color.of_name "red");
  Framebuffer.draw_text fb ~x:0 ~y:0 "ab";
  let c = Framebuffer.get fb ~x:0 ~y:0 in
  Alcotest.(check char) "text over fill" 'a' c.Framebuffer.ch;
  Alcotest.(check bool) "background preserved" true
    (Color.equal c.Framebuffer.bg (Color.of_name "red"))

let test_border () =
  let fb = mk 5 3 in
  Framebuffer.draw_border fb (Geometry.make ~x:0 ~y:0 ~w:5 ~h:3) ();
  Alcotest.(check string) "ascii frame" "+---+\n|   |\n+---+\n"
    (Framebuffer.to_text fb)

let test_tiny_border_skipped () =
  let fb = mk 3 1 in
  Framebuffer.draw_border fb (Geometry.make ~x:0 ~y:0 ~w:3 ~h:1) ();
  Alcotest.(check string) "no border drawn on 1-high rect" "\n"
    (Framebuffer.to_text fb)

let test_diff_cells () =
  let a = mk 3 1 and b = mk 3 1 in
  Alcotest.(check int) "identical" 0 (Framebuffer.diff_cells a b);
  Framebuffer.set_char b ~x:0 ~y:0 'x';
  Framebuffer.set_char b ~x:2 ~y:0 'y';
  Alcotest.(check int) "two differ" 2 (Framebuffer.diff_cells a b);
  let c = mk 4 1 in
  Alcotest.(check int) "size mismatch" max_int (Framebuffer.diff_cells a c)

let test_ansi_output () =
  let fb = mk 2 1 in
  Framebuffer.set fb ~x:0 ~y:0
    {
      Framebuffer.ch = 'x';
      fg = Color.of_name "red";
      bg = Color.of_name "blue";
      bold = true;
    };
  let s = Framebuffer.to_ansi fb in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "bold sgr" true (contains "1;38;5;196;48;5;21m");
  Alcotest.(check bool) "reset" true (contains "\027[0m");
  Alcotest.(check bool) "content" true (contains "x")

let test_colors () =
  Alcotest.(check bool) "light blue known" true (Color.known "light blue");
  Alcotest.(check bool) "case-insensitive" true (Color.known "Light Blue ");
  Alcotest.(check bool) "unknown falls back" true
    (Color.equal (Color.of_name "vermillion-ish") Color.Default);
  Alcotest.(check string) "fg sgr" "38;5;117"
    (Color.sgr_fg (Color.of_name "light blue"));
  Alcotest.(check string) "default is empty" "" (Color.sgr_fg Color.Default)

(* A page whose one box background covers every cell: painting it into
   a buffer already made must not allocate per cell (a per-cell record
   would cost 5 words a write). *)
let test_paint_allocates_nothing_per_cell () =
  let w = 48 and h = 20 in
  let page =
    Live_core.
      [
        Boxcontent.Box
          ( None,
            [
              Boxcontent.Attr ("background", Ast.VStr "blue");
              Boxcontent.Attr ("height", Ast.VNum (float_of_int h));
              Boxcontent.Leaf (Ast.VStr "hello");
            ] );
      ]
  in
  let root = Layout.layout_page ~width:w page in
  Alcotest.(check int) "page height" h (Layout.total_height root);
  let fb = mk w h in
  let before = Gc.minor_words () in
  Render.paint fb root;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "background covers the last cell" true
    (Color.equal (Framebuffer.get fb ~x:(w - 1) ~y:(h - 1)).Framebuffer.bg
       (Color.of_name "blue"));
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d cells" words (w * h))
    true
    (words < float_of_int (w * h / 8))

let test_copy_is_independent () =
  let fb = mk 6 3 in
  Framebuffer.draw_text fb ~x:0 ~y:0 "top";
  Framebuffer.draw_text fb ~x:1 ~y:2 "low";
  let text = Framebuffer.to_text fb and rows = Framebuffer.rows fb in
  let c = Framebuffer.copy fb in
  Framebuffer.draw_text c ~x:0 ~y:0 "new";
  Framebuffer.set_char c ~x:5 ~y:1 'x' ~bg:(Color.of_name "red");
  Framebuffer.clear_row c 2;
  Alcotest.(check string) "source text" text (Framebuffer.to_text fb);
  Alcotest.(check (array string)) "source rows" rows (Framebuffer.rows fb);
  Alcotest.(check string) "copy text" "new\n     x\n\n" (Framebuffer.to_text c);
  Alcotest.(check bool) "source cell" true
    (Color.equal (Framebuffer.get fb ~x:5 ~y:1).Framebuffer.bg Color.Default)

let test_rows_rebuilt_only_when_written () =
  let fb = mk 5 2 in
  Framebuffer.draw_text fb ~x:0 ~y:0 "ab  ";
  let before = Framebuffer.rows fb in
  Alcotest.(check string) "trimmed" "ab" before.(0);
  Framebuffer.draw_text fb ~x:0 ~y:1 "cd";
  let after = Framebuffer.rows fb in
  Alcotest.(check bool) "unwritten row kept" true (after.(0) == before.(0));
  Alcotest.(check string) "written row rebuilt" "cd" after.(1)

let suite =
  [
    Helpers.case "blank buffer" test_create_blank;
    Helpers.case "set/get" test_set_get;
    Helpers.case "out-of-bounds writes ignored" test_out_of_bounds_ignored;
    Helpers.case "text clipping" test_draw_text_clipping;
    Helpers.case "text composes over fills" test_fill_and_text_compose;
    Helpers.case "borders" test_border;
    Helpers.case "degenerate borders skipped" test_tiny_border_skipped;
    Helpers.case "diff_cells" test_diff_cells;
    Helpers.case "ANSI output" test_ansi_output;
    Helpers.case "color palette" test_colors;
    Helpers.case "painting allocates nothing per cell"
      test_paint_allocates_nothing_per_cell;
    Helpers.case "a copy is independent of its source" test_copy_is_independent;
    Helpers.case "row text is rebuilt only when written"
      test_rows_rebuilt_only_when_written;
  ]
