(** Capture-avoiding substitution [e[v/x]], the engine of rule EP-APP
    (Fig. 8).

    Substituted values are always closed in a well-typed run (values
    produced by evaluation of closed programs are closed), but we keep
    the implementation capture-avoiding anyway so that the small-step
    machine is safe on arbitrary terms produced by the random testers. *)

module SS = Ast.StringSet

(* Atomic so concurrent domains never tear the counter.  Sessions never
   reach this path — they evaluate closed programs, where capture is
   impossible — but the small-step specification machine substitutes
   into arbitrary terms, and a module-level [ref] would be the kind of
   silent shared state the domain audit exists to rule out. *)
let rename_counter = Atomic.make 0

let rename_away x avoid =
  let rec try_next () =
    let n = 1 + Atomic.fetch_and_add rename_counter 1 in
    let cand = Printf.sprintf "%s#%d" x n in
    if SS.mem cand avoid then try_next () else cand
  in
  try_next ()

(** [subst_expr x v e] is [e[v/x]].

    [closed_arg] asserts that [v] is a closed value, which makes
    capture impossible and lets substitution skip the free-variable
    scan of [v] (that scan is O(|v|); recomputing it at every loop
    iteration of a list fold would make rendering quadratic in the
    list length).  The big-step evaluator maintains the invariant that
    every value it produces from a closed program is closed, so it
    passes [~closed_arg:true]; the small-step specification machine
    does not. *)
let rec subst_expr ?(closed_arg = false) (x : Ident.var) (v : Ast.value)
    (e : Ast.expr) : Ast.expr =
  let fv =
    lazy (if closed_arg then SS.empty else Ast.free_vars (Val v))
  in
  let rec go_v (bound : SS.t) (w : Ast.value) : Ast.value =
    match w with
    | VNum _ | VStr _ -> w
    (* arrow-free lists contain no lambdas and hence no variables *)
    | VList (t, _) when Typ.arrow_free t -> w
    | VTuple vs -> VTuple (List.map (go_v bound) vs)
    | VList (t, vs) -> VList (t, List.map (go_v bound) vs)
    | VLam (y, t, body) ->
        if String.equal y x then w
        else if SS.mem y (Lazy.force fv) then
          (* [y] would capture a free variable of [v]: alpha-rename. *)
          let y' =
            rename_away y
              (SS.union (Lazy.force fv) (Ast.free_vars body))
          in
          let body_renamed = rename_var y y' body in
          VLam (y', t, go bound body_renamed)
        else VLam (y, t, go (SS.add y bound) body)
  and go (bound : SS.t) (e : Ast.expr) : Ast.expr =
    match e with
    | Val w -> Val (go_v bound w)
    | Var y -> if String.equal y x && not (SS.mem y bound) then Val v else e
    | Tuple es -> Tuple (List.map (go bound) es)
    | App (e1, e2) -> App (go bound e1, go bound e2)
    | Fn _ | Get _ | Pop -> e
    | Proj (e1, n) -> Proj (go bound e1, n)
    | Set (g, e1) -> Set (g, go bound e1)
    | Push (p, e1) -> Push (p, go bound e1)
    | Boxed (id, e1) -> Boxed (id, go bound e1)
    | Post e1 -> Post (go bound e1)
    | SetAttr (a, e1) -> SetAttr (a, go bound e1)
    | Prim (n, ts, es) -> Prim (n, ts, List.map (go bound) es)
  in
  go SS.empty e

(** [rename_var y y' e] renames free occurrences of variable [y] to
    [y'] (used only for alpha-renaming during capture avoidance). *)
and rename_var (y : Ident.var) (y' : Ident.var) (e : Ast.expr) : Ast.expr =
  let rec go_v bound (w : Ast.value) : Ast.value =
    match w with
    | VNum _ | VStr _ -> w
    | VList (t, _) when Typ.arrow_free t -> w
    | VTuple vs -> VTuple (List.map (go_v bound) vs)
    | VList (t, vs) -> VList (t, List.map (go_v bound) vs)
    | VLam (z, t, body) ->
        if String.equal z y then w else VLam (z, t, go (SS.add z bound) body)
  and go bound (e : Ast.expr) : Ast.expr =
    match e with
    | Val w -> Val (go_v bound w)
    | Var z ->
        if String.equal z y && not (SS.mem z bound) then Var y' else e
    | Tuple es -> Tuple (List.map (go bound) es)
    | App (e1, e2) -> App (go bound e1, go bound e2)
    | Fn _ | Get _ | Pop -> e
    | Proj (e1, n) -> Proj (go bound e1, n)
    | Set (g, e1) -> Set (g, go bound e1)
    | Push (p, e1) -> Push (p, go bound e1)
    | Boxed (id, e1) -> Boxed (id, go bound e1)
    | Post e1 -> Post (go bound e1)
    | SetAttr (a, e1) -> SetAttr (a, go bound e1)
    | Prim (n, ts, es) -> Prim (n, ts, List.map (go bound) es)
  in
  go SS.empty e

(** Apply a lambda value to an argument value: the right-hand side of
    EP-APP, [(lambda(x:tau).e) v  ->  e[v/x]]. *)
let beta ?closed_arg (x : Ident.var) (body : Ast.expr) (arg : Ast.value) :
    Ast.expr =
  subst_expr ?closed_arg x arg body
