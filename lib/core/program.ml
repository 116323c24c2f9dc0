(** Program code [C] (Fig. 7): a sequence of definitions

    {v
      d ::= global g : tau = v
          | fun f : tau is e
          | page p(tau) init e1 render e2
    v}

    Lookup is by name; T-C-* (Fig. 11) requires all defined names to be
    distinct across the three namespaces (the paper uses a single
    [Defs(C)] set), which {!State_typing.check_code} enforces.  We keep
    the definition list ordered (to reproduce source order in printing)
    and index it with a hashtable for O(1) lookup. *)

type def =
  | Global of { name : Ident.global; ty : Typ.t; init : Ast.value }
  | Func of { name : Ident.func; ty : Typ.t; body : Ast.expr }
      (** [ty] is the declared arrow type [tau1 -mu-> tau2] *)
  | Page of {
      name : Ident.page;
      arg_ty : Typ.t;
      init : Ast.expr;  (** typed [tau -s-> ()] by T-C-PAGE *)
      render : Ast.expr;  (** typed [tau -r-> ()] by T-C-PAGE *)
    }

type t = {
  defs : def list;
  index : (string, def) Hashtbl.t;
  uid : int;
      (** distinct for every value {!of_defs} builds: programs are
          compared by physical identity, and this is a hash of it that
          survives the moving GC *)
}

let next_uid = ref 0

let def_name = function
  | Global { name; _ } | Func { name; _ } | Page { name; _ } -> name

let of_defs (defs : def list) : t =
  let index = Hashtbl.create (max 16 (List.length defs)) in
  (* Later definitions shadow earlier ones for lookup purposes; the
     well-formedness check rejects duplicates anyway. *)
  List.iter (fun d -> Hashtbl.replace index (def_name d) d) defs;
  incr next_uid;
  { defs; index; uid = !next_uid }

let empty = of_defs []

let defs t = t.defs
let uid t = t.uid

let find (t : t) (name : string) : def option = Hashtbl.find_opt t.index name

let find_global (t : t) (g : Ident.global) =
  match find t g with
  | Some (Global { ty; init; _ }) -> Some (ty, init)
  | _ -> None

let find_func (t : t) (f : Ident.func) =
  match find t f with
  | Some (Func { ty; body; _ }) -> Some (ty, body)
  | _ -> None

(** [C(p) = (f_i, f_r)] — the paper's shorthand for page lookup. *)
let find_page (t : t) (p : Ident.page) =
  match find t p with
  | Some (Page { arg_ty; init; render; _ }) -> Some (arg_ty, init, render)
  | _ -> None

let mem t name = Hashtbl.mem t.index name

let globals t =
  List.filter_map
    (function Global { name; ty; init } -> Some (name, ty, init) | _ -> None)
    t.defs

let functions t =
  List.filter_map
    (function Func { name; ty; body } -> Some (name, ty, body) | _ -> None)
    t.defs

let pages t =
  List.filter_map
    (function
      | Page { name; arg_ty; init; render } -> Some (name, arg_ty, init, render)
      | _ -> None)
    t.defs

(** Replace or add a single definition — the building block of the
    editor's incremental code updates (the UPDATE transition itself
    swaps whole programs; the editor produces the new program by
    editing one definition). *)
let with_def (t : t) (d : def) : t =
  let name = def_name d in
  let replaced = ref false in
  let defs =
    List.map
      (fun d0 ->
        if String.equal (def_name d0) name then begin
          replaced := true;
          d
        end
        else d0)
      t.defs
  in
  let defs = if !replaced then defs else defs @ [ d ] in
  of_defs defs

let without_def (t : t) (name : string) : t =
  of_defs (List.filter (fun d -> not (String.equal (def_name d) name)) t.defs)

let pp_def ppf = function
  | Global { name; ty; init } ->
      Fmt.pf ppf "@[<2>global %s : %a =@ %a@]" name Typ.pp ty Pretty.pp_value
        init
  | Func { name; ty; body } ->
      Fmt.pf ppf "@[<2>fun %s : %a is@ %a@]" name Typ.pp ty Pretty.pp_expr
        body
  | Page { name; arg_ty; init; render } ->
      Fmt.pf ppf "@[<2>page %s(%a)@ init %a@ render %a@]" name Typ.pp arg_ty
        Pretty.pp_expr init Pretty.pp_expr render

let pp ppf t = Fmt.(list ~sep:(any "@.") pp_def) ppf t.defs
