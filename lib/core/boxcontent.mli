(** Box content [B] (Fig. 7): an ordered sequence of posted leaf
    values, attribute settings, and nested boxes.  Nested boxes carry
    the {!Srcid.t} of the [boxed] statement that created them. *)

type item =
  | Leaf of Ast.value  (** [B v] *)
  | Attr of Ident.attr * Ast.value  (** [B [a = v]] *)
  | Box of Srcid.t option * t  (** [B <B'>] *)

and t = item list

val empty : t
val equal : t -> t -> bool
val equal_item : item -> item -> bool

val handlers : ?attr:Ident.attr -> t -> Ast.value list
(** All handler values in the tree (pre-order) — the premise pool of
    the TAP rule's [[ontap = v] ∈ B]. *)

val first_handler : ?attr:Ident.attr -> t -> Ast.value option

type handler_index
(** Hashed index over a tree's [ontap] handlers; see {!mem_handler}. *)

val build_handler_index : t -> handler_index
val index_mem : handler_index -> Ast.value -> bool

val handler_index : t -> handler_index
(** The index for this tree, memoized by physical identity (box
    content is immutable; RENDER installs a fresh tree). *)

val mem_handler : t -> Ast.value -> bool
(** [[ontap = v] ∈ B] in O(1) expected time — the TAP premise.
    Equivalent to [List.exists (Ast.equal_value v) (handlers b)]. *)

val own_attr : Ident.attr -> t -> Ast.value option
(** The box's own attribute (not nested ones); last write wins. *)

val own_leaves : t -> Ast.value list
val children : t -> (Srcid.t option * t) list
val srcids : t -> Srcid.t list

type path = int list
(** A box address: child indices from the root. *)

val paths_of_srcid : Srcid.t -> t -> path list
(** Every box a boxed statement produced — several, in loops. *)

val box_at : path -> t -> t option
val srcid_at : path -> t -> Srcid.t option

val count_boxes : t -> int
val count_items : t -> int
val depth : t -> int

val pp : Format.formatter -> t -> unit
val pp_item : Format.formatter -> item -> unit
