(** The layout engine: box content to positioned rectangles.

    Every box has an outer rectangle (with margin), a frame (the
    painted area) and an inner content rectangle (frame minus border
    and padding).  Children of vertical boxes stretch to the available
    width; children of horizontal boxes shrink to natural width; text
    wraps.  Nodes keep their {!Live_core.Srcid.t} and box path — the
    data UI-Code Navigation needs. *)

type item =
  | Text of { lines : string list; rect : Geometry.rect; style : Style.t }
  | Child of node

and node = {
  srcid : Live_core.Srcid.t option;
  bpath : int list;  (** box path within the page's content *)
  style : Style.t;
  outer : Geometry.rect;
  frame : Geometry.rect;
  inner : Geometry.rect;
  items : item list;
}

val wrap_text : int -> string -> string list
(** Greedy word-wrap; lines that fit are kept verbatim (leading
    spaces matter in horizontal layouts). *)

val text_natural_width : string -> int
val natural_width : Live_core.Boxcontent.t -> int

(** {1 Previous-frame reuse}

    Physical-identity layout reuse for box trees produced by
    {!Live_core.Render_cache}: the previous frame's content and layout
    tree are walked in lockstep with the new frame, and child [i] of a
    box that is [==] to child [i] of the same box last frame (same
    available width, stretch and srcid) reuses its node, translated —
    the node itself when it did not move.  No hashing, no deep
    equality, and the state is exactly one frame, so it cannot grow
    without bound. *)

type reuse

val create_reuse : unit -> reuse

val layout_page : ?reuse:reuse -> ?width:int -> Live_core.Boxcontent.t -> node
(** Lay the page out under the implicit top-level box (Sec. 4.3);
    [width] defaults to 48 cells.  [reuse] holds the previous frame:
    the layout is walked against it and then replaces it. *)

(** {1 Queries} *)

val node_equal : node -> node -> bool
(** Structural equality; equal nodes paint identical cells. *)

val item_equal : item -> item -> bool

val iter_nodes : (node -> unit) -> node -> unit
val fold_nodes : ('a -> node -> 'a) -> 'a -> node -> 'a

val nodes_at : node -> x:int -> y:int -> node list
(** Boxes whose frame contains the point, outermost first. *)

val handler_at : node -> x:int -> y:int -> Live_core.Ast.value option
(** Deepest handler under the point — the implementation counterpart
    of TAP's [[ontap = v] ∈ B]. *)

val srcid_at : node -> x:int -> y:int -> Live_core.Srcid.t option
(** Deepest boxed statement under the point (live-view selection). *)

val frames_of_srcid : node -> Live_core.Srcid.t -> Geometry.rect list
(** Every frame a boxed statement produced (several, in loops). *)

val count_nodes : node -> int
val total_height : node -> int
