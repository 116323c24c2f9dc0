(** A character-cell framebuffer with per-cell colors and emphasis.

    This is the repository's display device: the paper rendered to a
    browser, we render to a grid of styled ASCII cells (the formal
    model deliberately does not specify visual layout, so any
    deterministic presentation of the box tree is faithful).  Plain
    text output feeds the golden tests; ANSI output feeds the CLI.

    Cells are stored as flat planes — one byte of character, two bytes
    of foreground and of background color code, one byte of emphasis
    per cell — so painting writes bytes, {!copy} is a block copy, and
    the collector has nothing per cell to scan.  Each row's trimmed
    text is kept alongside and rebuilt only for rows written since it
    was last read; {!copy} carries the row strings along, so a row that
    a damage repaint left clean is the same string in the next frame. *)

type cell = { ch : char; fg : Color.t; bg : Color.t; bold : bool }

let blank = { ch = ' '; fg = Color.Default; bg = Color.Default; bold = false }

type t = {
  width : int;
  height : int;
  chars : Bytes.t;  (** one byte per cell *)
  fgs : Bytes.t;  (** two bytes per cell: a color code *)
  bgs : Bytes.t;
  bolds : Bytes.t;  (** one byte per cell, ['\000'] or ['\001'] *)
  text : string array;  (** each row's trimmed text, unless stale *)
  stale : Bytes.t;  (** one byte per row: written since [text] was built *)
}

(* Color codes: [Default] is 0, [Indexed i] is [i + 1]. *)
let code : Color.t -> int = function
  | Color.Default -> 0
  | Color.Indexed i ->
      if i < 0 || i >= 0xFFFF then
        invalid_arg (Printf.sprintf "Framebuffer: color index %d" i);
      i + 1

let color_of_code : int -> Color.t = function
  | 0 -> Color.Default
  | n -> Color.Indexed (n - 1)

let create ~width ~height =
  let width = max 0 width and height = max 0 height in
  let n = width * height in
  {
    width;
    height;
    chars = Bytes.make n ' ';
    fgs = Bytes.make (2 * n) '\000';
    bgs = Bytes.make (2 * n) '\000';
    bolds = Bytes.make n '\000';
    text = Array.make height "";
    stale = Bytes.make height '\000';
  }

let copy (t : t) =
  {
    t with
    chars = Bytes.copy t.chars;
    fgs = Bytes.copy t.fgs;
    bgs = Bytes.copy t.bgs;
    bolds = Bytes.copy t.bolds;
    text = Array.copy t.text;
    stale = Bytes.copy t.stale;
  }

let width (t : t) = t.width
let height (t : t) = t.height
let in_bounds (t : t) x y = x >= 0 && x < t.width && y >= 0 && y < t.height

(* Row [y]'s text must be rebuilt before it is next read. *)
let touch (t : t) (y : int) : unit = Bytes.unsafe_set t.stale y '\001'

let get (t : t) ~x ~y : cell =
  if in_bounds t x y then begin
    let i = (y * t.width) + x in
    {
      ch = Bytes.get t.chars i;
      fg = color_of_code (Bytes.get_uint16_ne t.fgs (2 * i));
      bg = color_of_code (Bytes.get_uint16_ne t.bgs (2 * i));
      bold = Bytes.get t.bolds i <> '\000';
    }
  end
  else blank

let set (t : t) ~x ~y (c : cell) : unit =
  if in_bounds t x y then begin
    let i = (y * t.width) + x in
    Bytes.set t.chars i c.ch;
    Bytes.set_uint16_ne t.fgs (2 * i) (code c.fg);
    Bytes.set_uint16_ne t.bgs (2 * i) (code c.bg);
    Bytes.set t.bolds i (if c.bold then '\001' else '\000');
    touch t y
  end

let set_char (t : t) ~x ~y ?(fg = Color.Default) ?(bg = Color.Default)
    ?(bold = false) (ch : char) : unit =
  set t ~x ~y { ch; fg; bg; bold }

(** Row masks for damage-tracked repainting: when [rows] is given,
    writes land only on rows marked [true] — the dirty rows.  Clean
    rows keep the previous frame's cells verbatim. *)
let row_on (rows : bool array option) (y : int) : bool =
  match rows with
  | None -> true
  | Some m -> y >= 0 && y < Array.length m && m.(y)

(* Blank cells [x0, x1) of row [y] (in bounds), with background [bg]. *)
let blank_span (t : t) (y : int) (x0 : int) (x1 : int) (bg : int) : unit =
  let i = (y * t.width) + x0 and n = x1 - x0 in
  Bytes.fill t.chars i n ' ';
  Bytes.fill t.fgs (2 * i) (2 * n) '\000';
  Bytes.fill t.bolds i n '\000';
  if bg = 0 then Bytes.fill t.bgs (2 * i) (2 * n) '\000'
  else
    for j = i to i + n - 1 do
      Bytes.set_uint16_ne t.bgs (2 * j) bg
    done

(** Reset one row to blank cells (damage repaint starts from the
    previous frame and clears only the dirty rows).  A blank row's
    text is known without a rebuild. *)
let clear_row (t : t) (y : int) : unit =
  if y >= 0 && y < t.height then begin
    blank_span t y 0 t.width 0;
    t.text.(y) <- "";
    Bytes.set t.stale y '\000'
  end

(** Fill a rectangle's background (keeps nothing underneath — boxes
    paint back-to-front). *)
let fill_rect (t : t) ?rows (r : Geometry.rect) ~(bg : Color.t) : unit =
  let bg = code bg in
  let x0 = max 0 r.x and x1 = min t.width (r.x + r.w) in
  if x0 < x1 then
    for y = max 0 r.y to min (t.height - 1) (r.y + r.h - 1) do
      if row_on rows y then begin
        blank_span t y x0 x1 bg;
        touch t y
      end
    done

(** Draw a string; clipped at the buffer edge and at [max_x] if given.
    Preserves the existing background of each cell so text composes
    over filled boxes. *)
let draw_text (t : t) ?rows ~x ~y ?max_x ?(fg = Color.Default)
    ?(bold = false) (s : string) : unit =
  if y >= 0 && y < t.height && row_on rows y then begin
    let limit = match max_x with Some m -> min m t.width | None -> t.width in
    let x0 = max 0 x and x1 = min limit (x + String.length s) in
    if x0 < x1 then begin
      let fg = code fg and bold = if bold then '\001' else '\000' in
      let row = y * t.width in
      for cx = x0 to x1 - 1 do
        Bytes.set t.chars (row + cx) s.[cx - x];
        Bytes.set_uint16_ne t.fgs (2 * (row + cx)) fg;
        Bytes.set t.bolds (row + cx) bold
      done;
      touch t y
    end
  end

(** Draw an ASCII border just inside the rectangle. *)
let draw_border (t : t) ?rows (r : Geometry.rect) ?(fg = Color.Default) () :
    unit =
  if r.w >= 2 && r.h >= 2 then begin
    let fg = code fg in
    let put x y ch =
      if row_on rows y && in_bounds t x y then begin
        let i = (y * t.width) + x in
        Bytes.set t.chars i ch;
        Bytes.set_uint16_ne t.fgs (2 * i) fg;
        Bytes.set t.bolds i '\000';
        touch t y
      end
    in
    let x1 = r.x + r.w - 1 and y1 = r.y + r.h - 1 in
    for x = r.x + 1 to x1 - 1 do
      put x r.y '-';
      put x y1 '-'
    done;
    for y = r.y + 1 to y1 - 1 do
      put r.x y '|';
      put x1 y '|'
    done;
    put r.x r.y '+';
    put x1 r.y '+';
    put r.x y1 '+';
    put x1 y1 '+'
  end

(** Row [y]'s characters with trailing blanks trimmed, rebuilt only if
    the row was written since it was last read. *)
let row (t : t) (y : int) : string =
  if Bytes.get t.stale y <> '\000' then begin
    let off = y * t.width in
    let len = ref t.width in
    while !len > 0 && Bytes.get t.chars (off + !len - 1) = ' ' do
      decr len
    done;
    t.text.(y) <- Bytes.sub_string t.chars off !len;
    Bytes.set t.stale y '\000'
  end;
  t.text.(y)

let rows (t : t) : string array = Array.init t.height (row t)

(** Plain-text rendering, one line per row, trailing blanks trimmed.
    This is the stable format the golden tests compare against. *)
let to_text (t : t) : string =
  let len = ref 0 in
  for y = 0 to t.height - 1 do
    len := !len + String.length (row t y) + 1
  done;
  let buf = Bytes.create !len in
  let pos = ref 0 in
  Array.iter
    (fun s ->
      Bytes.blit_string s 0 buf !pos (String.length s);
      pos := !pos + String.length s;
      Bytes.set buf !pos '\n';
      incr pos)
    t.text;
  Bytes.unsafe_to_string buf

(** ANSI rendering with 256-color SGR sequences. *)
let to_ansi (t : t) : string =
  let buf = Buffer.create (t.width * t.height * 4) in
  for y = 0 to t.height - 1 do
    let current = ref "" in
    for x = 0 to t.width - 1 do
      let c = get t ~x ~y in
      let sgr =
        String.concat ";"
          (List.filter
             (fun s -> s <> "")
             [
               (if c.bold then "1" else "");
               Color.sgr_fg c.fg;
               Color.sgr_bg c.bg;
             ])
      in
      if sgr <> !current then begin
        Buffer.add_string buf "\027[0m";
        if sgr <> "" then begin
          Buffer.add_string buf "\027[";
          Buffer.add_string buf sgr;
          Buffer.add_char buf 'm'
        end;
        current := sgr
      end;
      Buffer.add_char buf c.ch
    done;
    Buffer.add_string buf "\027[0m\n"
  done;
  Buffer.contents buf

(** Count cells whose content differs between two buffers of equal
    size; used by the incremental-rendering tests. *)
let diff_cells (a : t) (b : t) : int =
  if a.width <> b.width || a.height <> b.height then max_int
  else begin
    let n = ref 0 in
    for i = 0 to (a.width * a.height) - 1 do
      if
        Bytes.get a.chars i <> Bytes.get b.chars i
        || Bytes.get_uint16_ne a.fgs (2 * i) <> Bytes.get_uint16_ne b.fgs (2 * i)
        || Bytes.get_uint16_ne a.bgs (2 * i) <> Bytes.get_uint16_ne b.bgs (2 * i)
        || Bytes.get a.bolds i <> Bytes.get b.bolds i
      then incr n
    done;
    !n
  end
