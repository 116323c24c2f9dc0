(** A character-cell framebuffer with per-cell colors and emphasis —
    this repository's display device.  Plain-text output feeds the
    golden tests; ANSI output feeds the CLI.

    Cells live in flat byte planes, so painting allocates nothing per
    cell and {!copy} is a block copy.  Each row's text is kept and
    rebuilt only after the row is written. *)

type cell = { ch : char; fg : Color.t; bg : Color.t; bold : bool }

val blank : cell

type t

val create : width:int -> height:int -> t

val copy : t -> t
(** An independent buffer with the same cells.  It shares the source's
    row strings until either side writes a row. *)

val width : t -> int
val height : t -> int
val in_bounds : t -> int -> int -> bool

val get : t -> x:int -> y:int -> cell
(** Out-of-bounds reads return {!blank}. *)

val set : t -> x:int -> y:int -> cell -> unit
(** Out-of-bounds writes are ignored.  Colors are stored as 16-bit
    codes: [Invalid_argument] on an [Indexed i] outside [0..65534]. *)

val set_char :
  t -> x:int -> y:int -> ?fg:Color.t -> ?bg:Color.t -> ?bold:bool ->
  char -> unit

val clear_row : t -> int -> unit
(** Reset one row to {!blank} cells (damage repaint clears only the
    dirty rows of the previous frame). *)

val fill_rect : t -> ?rows:bool array -> Geometry.rect -> bg:Color.t -> unit
(** Paint a background; boxes paint back-to-front.  [rows] is a damage
    mask: when given, only rows marked [true] are written. *)

val draw_text :
  t -> ?rows:bool array -> x:int -> y:int -> ?max_x:int -> ?fg:Color.t ->
  ?bold:bool -> string -> unit
(** Clipped at the buffer edge and at [max_x]; preserves the existing
    cell backgrounds so text composes over fills.  [rows] as in
    {!fill_rect}. *)

val draw_border :
  t -> ?rows:bool array -> Geometry.rect -> ?fg:Color.t -> unit -> unit
(** ASCII frame ([+--+] / [|]) just inside the rectangle; skipped for
    degenerate rectangles.  [rows] as in {!fill_rect}. *)

val rows : t -> string array
(** Every row's text, trailing blanks trimmed, in a fresh array.  A row
    not written since it was last read (in this buffer or, across
    {!copy}, in its source) is the same string as then. *)

val to_text : t -> string
(** One line per row, trailing blanks trimmed — the golden format:
    {!rows}, each followed by a newline. *)

val to_ansi : t -> string

val diff_cells : t -> t -> int
(** Number of differing cells; [max_int] on size mismatch. *)
