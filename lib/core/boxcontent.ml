(** Box content [B] (Fig. 7):

    {v
      B ::= epsilon | B v | B [a = v] | B <B>
    v}

    A box's content is an ordered sequence of posted leaf values,
    attribute settings, and nested boxes.  Nested boxes additionally
    carry the {!Srcid.t} of the [boxed] statement that created them
    (when compiled from surface code), which implements the paper's
    UI-Code Navigation (Sec. 3): selecting a box selects the boxed
    statement and vice versa. *)

type item =
  | Leaf of Ast.value  (** [B v] — content posted with [post] *)
  | Attr of Ident.attr * Ast.value  (** [B [a = v]] *)
  | Box of Srcid.t option * t  (** [B <B'>] — a nested box *)

and t = item list

let empty : t = []

let rec equal (a : t) (b : t) = List.equal equal_item a b

and equal_item a b =
  match (a, b) with
  | Leaf x, Leaf y -> Ast.equal_value x y
  | Attr (a1, v1), Attr (a2, v2) -> String.equal a1 a2 && Ast.equal_value v1 v2
  | Box (i1, b1), Box (i2, b2) -> Option.equal Srcid.equal i1 i2 && equal b1 b2
  | (Leaf _ | Attr _ | Box _), _ -> false

(** The premise of the TAP rule (Fig. 9): [[ontap = v] ∈ B], searching
    the whole tree.  Returns every handler, outermost first, pre-order;
    the UI layer picks one by hit-testing, the core tests use
    [first_handler]. *)
let rec handlers ?(attr = "ontap") (b : t) : Ast.value list =
  List.concat_map
    (function
      | Attr (a, v) when String.equal a attr -> [ v ]
      | Box (_, inner) -> handlers ~attr inner
      | Attr _ | Leaf _ -> [])
    b

let first_handler ?attr b =
  match handlers ?attr b with [] -> None | v :: _ -> Some v

(** Hashed index over a tree's [ontap] handlers, so the TAP rule's
    premise check [[ontap = v] ∈ B] is O(1) expected instead of a
    List.exists scan over every handler in the tree.  Keys are
    structural hashes; membership re-verifies with {!Ast.equal_value},
    so collisions cost time, never a wrong premise. *)
type handler_index = (int, Ast.value list) Hashtbl.t

let build_handler_index (b : t) : handler_index =
  let idx : handler_index = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let h = Ast.hash_value v in
      let vs = Option.value (Hashtbl.find_opt idx h) ~default:[] in
      Hashtbl.replace idx h (v :: vs))
    (handlers b);
  idx

let index_mem (idx : handler_index) (v : Ast.value) : bool =
  match Hashtbl.find_opt idx (Ast.hash_value v) with
  | Some vs -> List.exists (Ast.equal_value v) vs
  | None -> false

(* One-slot memo keyed on the physical identity of the tree: the
   common pattern is many taps validated against the same display, and
   box content is immutable, so [==] identifies "the same display".
   RENDER installs a new tree and the next tap rebuilds the index.

   The slot is domain-local: sessions tapped from several domains at
   once would make a single global slot both a data race and a
   ping-pong between domains, while a domain serving a run of taps
   keeps validating them against the display it just served.  The
   memo only short-circuits index construction — [index_mem]
   re-verifies membership — so it can never change a result, only its
   cost. *)
let index_memo : (t * handler_index) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let handler_index (b : t) : handler_index =
  let memo = Domain.DLS.get index_memo in
  match !memo with
  | Some (b0, idx) when b0 == b -> idx
  | _ ->
      let idx = build_handler_index b in
      memo := Some (b, idx);
      idx

let mem_handler (b : t) (v : Ast.value) : bool =
  index_mem (handler_index b) v

(** Attributes set directly on this box (not in nested boxes); last
    write wins, as the render code's later [box.a := v] overrides an
    earlier one. *)
let own_attr (attr : Ident.attr) (b : t) : Ast.value option =
  List.fold_left
    (fun acc item ->
      match item with
      | Attr (a, v) when String.equal a attr -> Some v
      | _ -> acc)
    None b

let own_leaves (b : t) : Ast.value list =
  List.filter_map (function Leaf v -> Some v | _ -> None) b

let children (b : t) : (Srcid.t option * t) list =
  List.filter_map (function Box (id, inner) -> Some (id, inner) | _ -> None) b

(** All source ids appearing in the tree, pre-order. *)
let rec srcids (b : t) : Srcid.t list =
  List.concat_map
    (function
      | Box (Some id, inner) -> id :: srcids inner
      | Box (None, inner) -> srcids inner
      | Leaf _ | Attr _ -> [])
    b

(** Paths address boxes by child index, root box tree = []. *)
type path = int list

(** Find the paths of every box created by the given boxed statement —
    the live-view half of UI-Code Navigation.  A boxed statement inside
    a loop yields several paths (Fig. 2's multi-selection). *)
let paths_of_srcid (target : Srcid.t) (b : t) : path list =
  let rec go (prefix : path) (b : t) acc =
    let _, acc =
      List.fold_left
        (fun (i, acc) item ->
          match item with
          | Box (id, inner) ->
              let here = prefix @ [ i ] in
              let acc =
                if Option.equal Srcid.equal id (Some target) then
                  here :: acc
                else acc
              in
              (i + 1, go here inner acc)
          | Leaf _ | Attr _ -> (i, acc))
        (0, acc) b
    in
    acc
  in
  List.rev (go [] b [])

(** Look up the box at a path. *)
let rec box_at (p : path) (b : t) : t option =
  match p with
  | [] -> Some b
  | i :: rest -> (
      match List.nth_opt (children b) i with
      | Some (_, inner) -> box_at rest inner
      | None -> None)

let srcid_at (p : path) (b : t) : Srcid.t option =
  match List.rev p with
  | [] -> None
  | last :: revprefix -> (
      match box_at (List.rev revprefix) b with
      | None -> None
      | Some parent -> (
          match List.nth_opt (children parent) last with
          | Some (id, _) -> id
          | None -> None))

(** Total number of boxes in the tree (used by benches and tests). *)
let rec count_boxes (b : t) : int =
  List.fold_left
    (fun n item ->
      match item with
      | Box (_, inner) -> n + 1 + count_boxes inner
      | Leaf _ | Attr _ -> n)
    0 b

let rec count_items (b : t) : int =
  List.fold_left
    (fun n item ->
      match item with
      | Box (_, inner) -> n + 1 + count_items inner
      | Leaf _ | Attr _ -> n + 1)
    0 b

let rec depth (b : t) : int =
  List.fold_left
    (fun d item ->
      match item with
      | Box (_, inner) -> max d (1 + depth inner)
      | Leaf _ | Attr _ -> d)
    0 b

let rec pp ppf (b : t) =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_item) b

and pp_item ppf = function
  | Leaf v -> Fmt.pf ppf "post %a" Pretty.pp_value v
  | Attr (a, v) -> Fmt.pf ppf "[%s = %a]" a Pretty.pp_value v
  | Box (id, inner) ->
      let pp_id ppf = function
        | None -> ()
        | Some id -> Fmt.pf ppf "@%a" Srcid.pp id
      in
      Fmt.pf ppf "@[<v2>box%a <@,%a@]@,>" pp_id id pp inner
