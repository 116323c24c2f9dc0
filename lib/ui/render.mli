(** Painting a layout tree into a framebuffer: parent-first, so nested
    boxes override inherited styling; foreground color inherits.
    {!paint_damaged} repaints only the rows on which the new layout
    differs from the previous frame. *)

val paint :
  Framebuffer.t -> ?rows:bool array -> ?fg:Color.t -> Layout.node -> unit
(** [rows] is a damage mask: only marked rows are written, and nodes
    whose span contains no marked row are skipped wholesale. *)

type damage = {
  repainted_rows : int;  (** rows cleared and repainted *)
  total_rows : int;  (** framebuffer height *)
  full : bool;  (** height changed: whole-frame repaint *)
}

val mark_damage : bool array -> Layout.node -> Layout.node -> unit
(** Mark every row any difference between the two trees touches, in
    both old and new coordinates. *)

val paint_damaged :
  prev:Layout.node * Framebuffer.t ->
  ?fg:Color.t ->
  Layout.node ->
  Framebuffer.t * damage
(** Repaint only the dirty rows, starting from a copy of the previous
    frame.  Cell-identical to a full {!paint} into a fresh buffer; a
    clean row keeps the previous frame's row string
    ({!Framebuffer.row}).  Returns the previous buffer unchanged when
    nothing differs. *)

val render_page :
  ?width:int -> Live_core.Boxcontent.t -> Framebuffer.t * Layout.node

val screenshot : ?width:int -> Live_core.Boxcontent.t -> string
(** Plain text — the golden-test format. *)

val screenshot_ansi : ?width:int -> Live_core.Boxcontent.t -> string

val screenshot_state : ?width:int -> Live_core.State.t -> string
(** [⊥] renders as ["<display invalid>"]. *)
