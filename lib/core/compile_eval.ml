(** Closure-compiled evaluation (see the interface).

    Compilation maps each {!Ast.expr} to an OCaml closure
    [rt -> env -> Ast.value] over a slot-indexed environment: the
    compile-time environment is the list of binders in scope
    (innermost first), and every [Var] is resolved to its slot index
    once, at compile time.  Applications of lambda {e literals} — the
    shape every [let], loop body and page entry desugars to — push the
    argument onto the environment and run the precompiled body: no
    substitution, no copying, no free-variable scan.

    Equivalence with the substitution machine ({!Eval}) rests on the
    standard substitution lemma plus one twist: runtime values must be
    plain {!Ast.value}s, byte-identical to what substitution produces,
    because they escape into the store, the display (tap handlers) and
    the oracle's observations.  So a lambda literal that {e captures}
    environment slots is {e reified} when evaluated as a value: the
    captured values are substituted into the literal, exactly mirroring
    [Subst.subst_expr ~closed_arg:true] (values of closed programs are
    closed, so simultaneous and sequential substitution agree).  A
    literal applied directly is never reified — that is the fast path.

    Dynamic applications (the callee is a computed value, e.g. the
    THUNK rule's handler) compile the lambda body on the fly — an
    O(|body|) pass, the same order as one substitution, so the dynamic
    path never regresses.  Fuel is consumed per compiled node, like the
    substitution evaluator consumes it per visited node; exact tick
    parity is not promised (only programs diverging near the bound
    could tell), stuck states and messages are identical.

    Effect discipline is enforced dynamically against the runtime mode,
    exactly as in {!Eval}: a [Set] reached in render mode is stuck with
    the same message.  [boxed] subtrees under memoization are keyed by
    a globally unique compile-time {e site id} plus the values of the
    environment slots the subtree captures ({!Render_cache.csubtree}
    layer) — the compiled counterpart of the substitution cache's
    (srcid, closed expression) key, again with no reification on the
    hot path. *)

module SS = Ast.StringSet

let stuck fmt = Fmt.kstr (fun s -> raise (Eval.Stuck s)) fmt

(* Subtree memoization sites are numbered by one global counter so that
   sites from different compilations (successive programs) can never
   collide in a render cache. *)
let site_counter = ref 0

let fresh_site () =
  incr site_counter;
  !site_counter

(* ------------------------------------------------------------------ *)
(* Runtime representation                                              *)
(* ------------------------------------------------------------------ *)

type env = Ast.value list
(** Runtime environment: value of each binder in scope, innermost
    first — same order as the compile-time [senv]. *)

type readscope = (Ident.global, Ast.value) Hashtbl.t

type tracer = { mutable scopes : readscope list  (** innermost first *) }

(** Mutable evaluation state, one per entry-point call (mirrors
    [Eval.ctx]).  [mode] is fixed for the whole run; the effect
    discipline is checked against it dynamically. *)
type rt = {
  prog : Program.t;
  mutable fuel : int;
  mutable store : Store.t;
  mutable queue : Event.t Fqueue.t;
  mode : Eff.t;
  mutable box : Boxcontent.item list ref option;
      (** current box accumulator (reversed, O(1) append) *)
  trace : tracer option;
  memo : Render_cache.t option;
}

let tick (rt : rt) =
  rt.fuel <- rt.fuel - 1;
  if rt.fuel <= 0 then raise Eval.Out_of_fuel

let record_read (rt : rt) (g : Ident.global) (v : Ast.value) : unit =
  match rt.trace with
  | None -> ()
  | Some { scopes = scope :: _ } ->
      if not (Hashtbl.mem scope g) then Hashtbl.add scope g v
  | Some { scopes = [] } -> ()

let record_reads (rt : rt) (reads : Render_cache.reads) : unit =
  List.iter (fun (g, v) -> record_read rt g v) reads

let scope_reads (scope : readscope) : Render_cache.reads =
  Hashtbl.fold (fun g v acc -> (g, v) :: acc) scope []

type code = rt -> env -> Ast.value

type apply = rt -> Ast.value -> Ast.value

type cpage = { p_init : apply; p_render : apply }

type t = {
  cprog : Program.t;
  funcs : (Ident.func, code) Hashtbl.t;
      (** every function body, compiled under the empty environment *)
  fapply : (Ident.func, apply) Hashtbl.t;
      (** direct application, for functions whose body is statically a
          lambda literal (all of them, in desugared programs) *)
  cpages : (Ident.page, cpage) Hashtbl.t;
  def_sites : (string, int list) Hashtbl.t;
      (** subtree memoization sites stamped while compiling each
          definition — lets {!get_incremental} carry a reused
          definition's sites over to the next compilation *)
  sites : (int, unit) Hashtbl.t;
      (** every site live in this compilation (stamped fresh or carried
          over) — the domain of {!site_live} *)
  mutable cur_def : string option;
      (** the definition being compiled right now (compile time only;
          always [None] once compilation finishes) *)
}

let program (t : t) = t.cprog

let site_live (t : t) (site : int) : bool = Hashtbl.mem t.sites site

(* Stamp a fresh memoization site and attribute it to the definition
   being compiled.  Dynamic (re)compilations pass no [cur_def] and are
   never reused, so only static sites are recorded. *)
let record_site (ct : t) : int =
  let site = fresh_site () in
  Hashtbl.replace ct.sites site ();
  (match ct.cur_def with
  | Some d ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt ct.def_sites d)
      in
      Hashtbl.replace ct.def_sites d (site :: prev)
  | None -> ());
  site

(* ------------------------------------------------------------------ *)
(* Value reification                                                   *)
(* ------------------------------------------------------------------ *)

(* Substitute captured environment values into a lambda literal that
   escapes as a value.  This mirrors [Subst.subst_expr ~closed_arg:true]
   (naive, shadowing-aware, no capture avoidance — runtime values of
   closed programs are closed) performed simultaneously for every
   captured binder. *)
let rec reify_value (sub : (Ident.var * Ast.value) list) (w : Ast.value) :
    Ast.value =
  match w with
  | Ast.VNum _ | Ast.VStr _ -> w
  | Ast.VList (t, _) when Typ.arrow_free t -> w
  | Ast.VTuple vs -> Ast.VTuple (List.map (reify_value sub) vs)
  | Ast.VList (t, vs) -> Ast.VList (t, List.map (reify_value sub) vs)
  | Ast.VLam (y, t, body) -> (
      match List.filter (fun (x, _) -> not (String.equal x y)) sub with
      | [] -> w
      | sub' -> Ast.VLam (y, t, reify_expr sub' body))

and reify_expr (sub : (Ident.var * Ast.value) list) (e : Ast.expr) : Ast.expr
    =
  match e with
  | Ast.Val w -> Ast.Val (reify_value sub w)
  | Ast.Var y -> (
      match List.assoc_opt y sub with Some v -> Ast.Val v | None -> e)
  | Ast.Tuple es -> Ast.Tuple (List.map (reify_expr sub) es)
  | Ast.App (e1, e2) -> Ast.App (reify_expr sub e1, reify_expr sub e2)
  | Ast.Fn _ | Ast.Get _ | Ast.Pop -> e
  | Ast.Proj (e1, n) -> Ast.Proj (reify_expr sub e1, n)
  | Ast.Set (g, e1) -> Ast.Set (g, reify_expr sub e1)
  | Ast.Push (p, e1) -> Ast.Push (p, reify_expr sub e1)
  | Ast.Boxed (id, e1) -> Ast.Boxed (id, reify_expr sub e1)
  | Ast.Post e1 -> Ast.Post (reify_expr sub e1)
  | Ast.SetAttr (a, e1) -> Ast.SetAttr (a, reify_expr sub e1)
  | Ast.Prim (n, ts, es) -> Ast.Prim (n, ts, List.map (reify_expr sub) es)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let slot_of (senv : Ident.var list) (x : Ident.var) : int option =
  let rec go i = function
    | [] -> None
    | y :: tl -> if String.equal y x then Some i else go (i + 1) tl
  in
  go 0 senv

(** The environment slots a subexpression captures: for each free
    variable bound in [senv], its name and slot, in deterministic
    (sorted-name) order. *)
let captured (senv : Ident.var list) (fvs : SS.t) :
    (Ident.var * int) list =
  SS.elements fvs
  |> List.filter_map (fun x ->
         match slot_of senv x with Some i -> Some (x, i) | None -> None)

let slot_values (slots : (Ident.var * int) list) (env : env) :
    (Ident.var * Ast.value) list =
  List.map (fun (x, i) -> (x, List.nth env i)) slots

(** [compile_e ct ~static senv e] — compile [e] under the binders [senv]
    (innermost first).  [static] is true for code compiled once per
    program (function and page bodies): only static [boxed] sites get
    memoization site ids, because a dynamically compiled site would get
    a fresh id per compilation and never hit. *)
let rec compile_e (ct : t) ~(static : bool) (senv : Ident.var list)
    (e : Ast.expr) : code =
  match e with
  | Ast.Val v -> (
      match captured senv (Ast.free_vars e) with
      | [] -> fun rt _env -> tick rt; v
      | slots ->
          fun rt env ->
            tick rt;
            reify_value (slot_values slots env) v)
  | Ast.Var x -> (
      match slot_of senv x with
      | Some i -> fun rt env -> tick rt; List.nth env i
      | None -> fun rt _env -> tick rt; stuck "unbound variable %s" x)
  | Ast.Tuple es ->
      let cs = List.map (compile_e ct ~static senv) es in
      fun rt env ->
        tick rt;
        Ast.VTuple (List.map (fun c -> c rt env) cs)
  | Ast.App (Ast.Val (Ast.VLam (x, _, body)), e2) ->
      (* the shape every [let] and loop body desugars to: push the
         argument on the environment and run the precompiled body —
         the whole point of this module *)
      let carg = compile_e ct ~static senv e2 in
      let cbody = compile_e ct ~static (x :: senv) body in
      fun rt env ->
        tick rt;
        let arg = carg rt env in
        cbody rt (arg :: env)
  | Ast.App (Ast.Fn f, e2) ->
      (* like the substitution evaluator, resolve the callee before
         evaluating the argument (stuck order matters) *)
      let carg = compile_e ct ~static senv e2 in
      fun rt env -> (
        tick rt;
        match Hashtbl.find_opt ct.fapply f with
        | Some ap ->
            let arg = carg rt env in
            ap rt arg
        | None -> (
            match Hashtbl.find_opt ct.funcs f with
            | Some cf ->
                let fv = cf rt [] in
                let arg = carg rt env in
                apply_value ct rt fv arg
            | None -> stuck "undefined function %s" f))
  | Ast.App (e1, e2) ->
      let c1 = compile_e ct ~static senv e1 in
      let c2 = compile_e ct ~static senv e2 in
      fun rt env ->
        tick rt;
        let f = c1 rt env in
        let arg = c2 rt env in
        apply_value ct rt f arg
  | Ast.Fn f -> (
      fun rt _env ->
        tick rt;
        match Hashtbl.find_opt ct.funcs f with
        | Some cf -> cf rt []
        | None -> stuck "undefined function %s" f)
  | Ast.Proj (e1, n) -> (
      let c1 = compile_e ct ~static senv e1 in
      fun rt env ->
        tick rt;
        match c1 rt env with
        | Ast.VTuple vs -> (
            match List.nth_opt vs (n - 1) with
            | Some v -> v
            | None -> stuck "projection .%d out of range" n)
        | _ -> stuck "projection from a non-tuple")
  | Ast.Get g -> (
      fun rt _env ->
        tick rt;
        match Store.read rt.prog g rt.store with
        | Some v ->
            record_read rt g v;
            v
        | None -> stuck "undefined global %s" g)
  | Ast.Set (g, e1) ->
      let c1 = compile_e ct ~static senv e1 in
      fun rt env ->
        tick rt;
        if not (Eff.sub Eff.State rt.mode) then
          stuck "global write to %s outside state effect" g
        else begin
          let v = c1 rt env in
          rt.store <- Store.write g v rt.store;
          Ast.vunit
        end
  | Ast.Push (p, e1) ->
      let c1 = compile_e ct ~static senv e1 in
      fun rt env ->
        tick rt;
        if not (Eff.sub Eff.State rt.mode) then
          stuck "push outside state effect"
        else begin
          let v = c1 rt env in
          rt.queue <- Fqueue.enqueue (Event.Push (p, v)) rt.queue;
          Ast.vunit
        end
  | Ast.Pop ->
      fun rt _env ->
        tick rt;
        if not (Eff.sub Eff.State rt.mode) then
          stuck "pop outside state effect"
        else begin
          rt.queue <- Fqueue.enqueue Event.Pop rt.queue;
          Ast.vunit
        end
  | Ast.Boxed (id, inner) ->
      let ci = compile_e ct ~static senv inner in
      if static then
        let site = record_site ct in
        let slots = captured senv (Ast.free_vars inner) in
        fun rt env -> (
          tick rt;
          match rt.box with
          | Some parent when Eff.sub Eff.Render rt.mode -> (
              match rt.memo with
              | None -> eval_boxed_plain rt parent ci id env
              | Some memo ->
                  let args = List.map (fun (_, i) -> List.nth env i) slots in
                  eval_boxed_memo rt parent memo ~site ~args ci id env)
          | _ -> stuck "boxed outside render effect")
      else
        fun rt env -> (
          tick rt;
          match rt.box with
          | Some parent when Eff.sub Eff.Render rt.mode ->
              (* dynamically compiled sites skip subtree memoization
                 (their site id would be fresh every compilation);
                 reads land in the enclosing scope, keeping parents'
                 read sets transitive *)
              eval_boxed_plain rt parent ci id env
          | _ -> stuck "boxed outside render effect")
  | Ast.Post e1 -> (
      let c1 = compile_e ct ~static senv e1 in
      fun rt env ->
        tick rt;
        match rt.box with
        | Some acc when Eff.sub Eff.Render rt.mode ->
            let v = c1 rt env in
            acc := Boxcontent.Leaf v :: !acc;
            Ast.vunit
        | _ -> stuck "post outside render effect")
  | Ast.SetAttr (a, e1) -> (
      let c1 = compile_e ct ~static senv e1 in
      fun rt env ->
        tick rt;
        match rt.box with
        | Some acc when Eff.sub Eff.Render rt.mode ->
            let v = c1 rt env in
            acc := Boxcontent.Attr (a, v) :: !acc;
            Ast.vunit
        | _ -> stuck "attribute write outside render effect")
  | Ast.Prim
      ( "cond",
        ([ _ ] as ts),
        [ b; Ast.Val (Ast.VLam (x1, _, t1)); Ast.Val (Ast.VLam (x2, _, t2)) ]
      ) ->
      (* the thunk encoding of conditionals, with both thunks statically
         lambda literals (the only shape the surface compiler emits):
         run the chosen branch body directly instead of reifying two
         thunks per evaluation — this is the inner-loop hot path *)
      let cb = compile_e ct ~static senv b in
      let c1 = compile_e ct ~static (x1 :: senv) t1 in
      let c2 = compile_e ct ~static (x2 :: senv) t2 in
      fun rt env -> (
        tick rt;
        match cb rt env with
        | Ast.VNum c ->
            if c <> 0.0 then c1 rt (Ast.vunit :: env)
            else c2 rt (Ast.vunit :: env)
        | v -> (
            (* same message the delta rule produces on a non-numeric
               condition (it never inspects the thunks first) *)
            match Prim.delta "cond" ts [ v; Ast.vunit; Ast.vunit ] with
            | Error m -> raise (Eval.Stuck m)
            | Ok _ -> assert false))
  | Ast.Prim (name, ts, es) -> (
      let cs = List.map (compile_e ct ~static senv) es in
      fun rt env ->
        tick rt;
        let vs = List.map (fun c -> c rt env) cs in
        match Prim.delta name ts vs with
        | Ok (Ast.Val v) -> v
        | Ok e' ->
            (* residual expression (only [cond] produces one): built
               from values, hence closed — compile and run *)
            (compile_e ct ~static:false [] e') rt []
        | Error m -> raise (Eval.Stuck m))

and eval_boxed_plain (rt : rt) (parent : Boxcontent.item list ref)
    (ci : code) (id : Srcid.t option) (env : env) : Ast.value =
  let acc : Boxcontent.item list ref = ref [] in
  rt.box <- Some acc;
  let v = ci rt env in
  rt.box <- Some parent;
  parent := Boxcontent.Box (id, List.rev !acc) :: !parent;
  v

(** A static [boxed] site under memoization — the compiled counterpart
    of [Eval.eval_boxed_memo].  The subtree's output is a pure function
    of (the compiled site, the captured environment values, the code,
    the globals it read); code identity is enforced by
    [Render_cache.ensure_code], the rest is the cache key and the
    recorded read set. *)
and eval_boxed_memo (rt : rt) (parent : Boxcontent.item list ref)
    (memo : Render_cache.t) ~(site : int) ~(args : Ast.value list)
    (ci : code) (id : Srcid.t option) (env : env) : Ast.value =
  let key = Render_cache.site_key ~site ~args in
  match Render_cache.find memo key ~prog:rt.prog ~store:rt.store with
  | Some entry ->
      parent := entry.Render_cache.item :: !parent;
      let globals = entry.Render_cache.globals in
      for j = 0 to Array.length globals - 1 do
        record_read rt globals.(j) entry.Render_cache.vals.(j)
      done;
      entry.Render_cache.value
  | None ->
      let scope : readscope = Hashtbl.create 8 in
      (match rt.trace with
      | Some tr -> tr.scopes <- scope :: tr.scopes
      | None -> ());
      let acc : Boxcontent.item list ref = ref [] in
      rt.box <- Some acc;
      let v = ci rt env in
      rt.box <- Some parent;
      (match rt.trace with
      | Some tr -> tr.scopes <- List.tl tr.scopes
      | None -> ());
      let item = Boxcontent.Box (id, List.rev !acc) in
      parent := item :: !parent;
      let reads = scope_reads scope in
      Render_cache.add memo key ~prog:rt.prog ~value:v ~item ~reads;
      record_reads rt reads;
      v

(** Apply a computed callee value: compile the lambda body on the fly
    under its single binder — O(|body|), the same order as the one
    substitution the EP-APP rule would perform. *)
and apply_value (ct : t) (rt : rt) (f : Ast.value) (arg : Ast.value) :
    Ast.value =
  match f with
  | Ast.VLam (x, _, body) ->
      let cb = compile_e ct ~static:false [ x ] body in
      cb rt [ arg ]
  | _ -> stuck "application of a non-function value"

(** Compile an expression of arrow shape (page init/render code, always
    a lambda literal after desugaring) to a direct application. *)
let compile_apply (ct : t) ~(static : bool) (e : Ast.expr) : apply =
  match e with
  | Ast.Val (Ast.VLam (x, _, body)) ->
      let cb = compile_e ct ~static [ x ] body in
      fun rt arg -> cb rt [ arg ]
  | _ ->
      let ce = compile_e ct ~static [] e in
      fun rt arg ->
        let f = ce rt [] in
        apply_value ct rt f arg

(* ------------------------------------------------------------------ *)
(* Program compilation and the compile cache                           *)
(* ------------------------------------------------------------------ *)

let empty_ct (prog : Program.t) : t =
  {
    cprog = prog;
    funcs = Hashtbl.create 16;
    fapply = Hashtbl.create 16;
    cpages = Hashtbl.create 8;
    def_sites = Hashtbl.create 16;
    sites = Hashtbl.create 32;
    cur_def = None;
  }

let compile_func (ct : t) (f : Ident.func) (body : Ast.expr) : unit =
  ct.cur_def <- Some f;
  Hashtbl.replace ct.funcs f (compile_e ct ~static:true [] body);
  (match body with
  | Ast.Val (Ast.VLam _) ->
      Hashtbl.replace ct.fapply f (compile_apply ct ~static:true body)
  | _ -> ());
  ct.cur_def <- None

let compile_page (ct : t) (p : Ident.page) (init : Ast.expr)
    (render : Ast.expr) : unit =
  ct.cur_def <- Some p;
  Hashtbl.replace ct.cpages p
    {
      p_init = compile_apply ct ~static:true init;
      p_render = compile_apply ct ~static:true render;
    };
  ct.cur_def <- None

let compile (prog : Program.t) : t =
  let ct = empty_ct prog in
  (* Eagerly compile every function and page body.  Recursion (and
     mutual recursion) works because compiled [Fn] references resolve
     through the tables at run time, after all of them are filled. *)
  List.iter
    (fun (f, _, body) -> compile_func ct f body)
    (Program.functions prog);
  List.iter
    (fun (p, _, init, render) -> compile_page ct p init render)
    (Program.pages prog);
  ct

(** Compile [prog] reusing [old_ct]'s compiled definitions for every
    name the diff proves transitively clean; only dirty definitions are
    recompiled.

    Soundness of reuse: a reused closure resolves [Fn f] through the
    tables of the compilation it was {e born} in ([old_ct] — closures
    capture their [ct]), so everything it can reach at run time is a
    definition it (transitively) references.  The diff's dirty set is
    closed under reverse dependencies, so a transitively-clean
    definition references only transitively-clean definitions — whose
    old compiled code is byte-for-byte the code a fresh compilation
    would produce (compilation is deterministic up to site ids).
    Global reads never go through the tables at all: [Get] reads
    [rt.prog], and every entry point builds [rt] from the {e new}
    compilation's [cprog], so reused code observes new initial values
    correctly.  Reused definitions keep their memoization site ids
    (globally unique, so no collision with fresh ones) — their cached
    subtrees stay valid; recompiled definitions get fresh ids, so
    their stale cache entries become unreachable (and
    {!Render_cache.retarget_tables} drops them by site liveness). *)
let compile_incremental ~(diff : Program_diff.t) (old_ct : t)
    (prog : Program.t) : t =
  let ct = empty_ct prog in
  let carry_sites name =
    match Hashtbl.find_opt old_ct.def_sites name with
    | Some sites ->
        Hashtbl.replace ct.def_sites name sites;
        List.iter (fun s -> Hashtbl.replace ct.sites s ()) sites
    | None -> ()
  in
  List.iter
    (fun (f, _, body) ->
      match Hashtbl.find_opt old_ct.funcs f with
      | Some c when not (Program_diff.is_dirty diff f) ->
          Hashtbl.replace ct.funcs f c;
          (match Hashtbl.find_opt old_ct.fapply f with
          | Some ap -> Hashtbl.replace ct.fapply f ap
          | None -> ());
          carry_sites f
      | _ -> compile_func ct f body)
    (Program.functions prog);
  List.iter
    (fun (p, _, init, render) ->
      match Hashtbl.find_opt old_ct.cpages p with
      | Some cp when not (Program_diff.is_dirty diff p) ->
          Hashtbl.replace ct.cpages p cp;
          carry_sites p
      | _ -> compile_page ct p init render)
    (Program.pages prog);
  ct

(* The compile cache, keyed by program identity through an ephemeron:
   a compilation lives exactly as long as its program does — in
   particular for as long as a registry epoch or a session holds it —
   and is never compiled twice while it lives, so its subtree site ids
   stay valid for every render cache that recorded them. *)
module Compiled = Ephemeron.K1.Make (struct
  type t = Program.t

  let equal = ( == )
  let hash = Program.uid
end)

let cache : t Compiled.t = Compiled.create 16

let cache_size () = (Compiled.stats_alive cache).Hashtbl.num_bindings

let publish (prog : Program.t) (c : t) : t =
  Compiled.replace cache prog c;
  c

let get (prog : Program.t) : t =
  match Compiled.find_opt cache prog with
  | Some c -> c
  | None -> publish prog (compile prog)

let derive ~(diff : Program_diff.t) (old_ct : t) (prog : Program.t) : t =
  match Compiled.find_opt cache prog with
  | Some c -> c
  | None ->
      publish prog
        (if old_ct.cprog == Program_diff.old_program diff
            && Program_diff.new_program diff == prog
         then compile_incremental ~diff old_ct prog
         else compile prog)

let get_incremental ~(diff : Program_diff.t) (prog : Program.t) : t =
  match Compiled.find_opt cache (Program_diff.old_program diff) with
  | Some old_ct -> derive ~diff old_ct prog
  | None -> get prog (* the old program is gone: start over *)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let make_rt ?(fuel = Eval.default_fuel) (ct : t) (mode : Eff.t)
    (store : Store.t) (queue : Event.t Fqueue.t) (trace : tracer option)
    (memo : Render_cache.t option) : rt =
  { prog = ct.cprog; fuel; store; queue; mode; box = None; trace; memo }

let run_thunk ?fuel (ct : t) (store : Store.t) (queue : Event.t Fqueue.t)
    (v : Ast.value) : Ast.value * Store.t * Event.t Fqueue.t =
  let rt = make_rt ?fuel ct Eff.State store queue None None in
  let r = apply_value ct rt v Ast.vunit in
  (r, rt.store, rt.queue)

let find_page (ct : t) (page : Ident.page) : cpage =
  match Hashtbl.find_opt ct.cpages page with
  | Some cp -> cp
  | None -> stuck "undefined page %s" page

let run_page_init ?fuel (ct : t) ~(page : Ident.page) (store : Store.t)
    (queue : Event.t Fqueue.t) (arg : Ast.value) :
    Ast.value * Store.t * Event.t Fqueue.t =
  let cp = find_page ct page in
  let rt = make_rt ?fuel ct Eff.State store queue None None in
  let v = cp.p_init rt arg in
  (v, rt.store, rt.queue)

let run_page_render ?fuel (ct : t) ~(page : Ident.page) (store : Store.t)
    (arg : Ast.value) : Ast.value * Boxcontent.t =
  let cp = find_page ct page in
  let rt = make_rt ?fuel ct Eff.Render store Fqueue.empty None None in
  let acc : Boxcontent.item list ref = ref [] in
  rt.box <- Some acc;
  let v = cp.p_render rt arg in
  (v, List.rev !acc)

let run_page_render_traced ?fuel ?memo (ct : t) ~(page : Ident.page)
    (store : Store.t) (arg : Ast.value) :
    Ast.value * Boxcontent.t * Render_cache.reads =
  let cp = find_page ct page in
  let root : readscope = Hashtbl.create 16 in
  let rt =
    make_rt ?fuel ct Eff.Render store Fqueue.empty
      (Some { scopes = [ root ] })
      memo
  in
  let acc : Boxcontent.item list ref = ref [] in
  rt.box <- Some acc;
  let v = cp.p_render rt arg in
  (v, List.rev !acc, scope_reads root)

(* Arbitrary expressions, compiled on the fly (tests, tools, the THUNK
   residuals).  [~static:false]: a fresh compilation would get fresh
   subtree site ids, so memoization is pointless here. *)

let eval_pure ?fuel (ct : t) (store : Store.t) (e : Ast.expr) : Ast.value =
  let rt = make_rt ?fuel ct Eff.Pure store Fqueue.empty None None in
  (compile_e ct ~static:false [] e) rt []

let eval_state ?fuel (ct : t) (store : Store.t) (queue : Event.t Fqueue.t)
    (e : Ast.expr) : Ast.value * Store.t * Event.t Fqueue.t =
  let rt = make_rt ?fuel ct Eff.State store queue None None in
  let v = (compile_e ct ~static:false [] e) rt [] in
  (v, rt.store, rt.queue)

let eval_render ?fuel (ct : t) (store : Store.t) (e : Ast.expr) :
    Ast.value * Boxcontent.t =
  let rt = make_rt ?fuel ct Eff.Render store Fqueue.empty None None in
  let acc : Boxcontent.item list ref = ref [] in
  rt.box <- Some acc;
  let v = (compile_e ct ~static:false [] e) rt [] in
  (v, List.rev !acc)

let eval_render_traced ?fuel ?memo (ct : t) (store : Store.t) (e : Ast.expr)
    : Ast.value * Boxcontent.t * Render_cache.reads =
  let root : readscope = Hashtbl.create 16 in
  let rt =
    make_rt ?fuel ct Eff.Render store Fqueue.empty
      (Some { scopes = [ root ] })
      memo
  in
  let acc : Boxcontent.item list ref = ref [] in
  rt.box <- Some acc;
  let v = (compile_e ct ~static:false [] e) rt [] in
  (v, List.rev !acc, scope_reads root)
