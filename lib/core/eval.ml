(** Expression evaluation (Fig. 8): the three relations

    {v
      (C, S, e)       ->p (C, S, e')          pure steps
      (C, S, Q, e)    ->s (C, S', Q', e')     standard (stateful) steps
      (C, S, B, e)    ->r (C, S, B', e')      render steps
    v}

    Two implementations live here:

    - {b Small-step} ({!step}, {!step_pure}, {!step_state},
      {!step_render}): a literal transcription of the evaluation
      contexts and rules of Fig. 8, used by the metatheory test-suite
      (preservation/progress) and as the executable specification.
      Rule ER-BOXED has a big-step premise [(C,S,eps,e) ->r* (C,S,B',v)]
      in the paper; we mirror that — a [boxed] expression reduces in
      one outer step whose premise iterates inner render steps.

    - {b Big-step} ({!eval_state}, {!eval_render}, {!eval_pure}): an
      efficient evaluator used by {!Machine} and the benchmarks.  It is
      checked against the small-step semantics on random well-typed
      programs (see [test/test_smallstep.ml]).

    Both enforce the effect discipline dynamically as well (a [Set] in
    render mode is {e stuck}, not silently executed), so even untyped
    terms cannot violate the model-view separation. *)

exception Stuck of string
exception Out_of_fuel

let stuck fmt = Fmt.kstr (fun s -> raise (Stuck s)) fmt

(** Default fuel for a single expression evaluation; generous enough
    for every workload in this repository while still catching the
    divergent programs the paper acknowledges ("the execution of user
    code may of course diverge", Sec. 4.2). *)
let default_fuel = 50_000_000

(* ================================================================== *)
(* Small-step semantics                                                *)
(* ================================================================== *)

(** Configuration shared by the three relations.  Pure steps ignore
    [queue] and [box]; stateful steps ignore [box]; render steps ignore
    [queue] and may not change [store]. *)
type cfg = { store : Store.t; queue : Event.t Fqueue.t; box : Boxcontent.t }

let cfg_of_store store = { store; queue = Fqueue.empty; box = [] }

type outcome =
  | Value  (** the expression is a value; no step applies *)
  | Next of cfg * Ast.expr  (** one step *)
  | Wrong of string  (** stuck: no rule applies *)

(** [step mode prog cfg e] — one small step of [->mode].  [fuel] bounds
    the inner iteration of ER-BOXED premises. *)
let rec step ?(fuel = default_fuel) (mode : Eff.t) (prog : Program.t)
    (cfg : cfg) (e : Ast.expr) : outcome =
  let sub_step e' k =
    (* Step inside an evaluation context: if the subterm steps, rebuild. *)
    match step ~fuel mode prog cfg e' with
    | Value -> Value (* caller must handle: subterm already a value *)
    | Next (cfg', e'') -> Next (cfg', k e'')
    | Wrong m -> Wrong m
  in
  let first_nonvalue es =
    (* leftmost non-value subterm, per the (v1,...,vi,E,ej,...) context *)
    let rec go i = function
      | [] -> None
      | e :: rest -> if Ast.is_value e then go (i + 1) rest else Some (i, e)
    in
    go 0 es
  in
  let step_list es rebuild =
    match first_nonvalue es with
    | None -> Value
    | Some (i, ei) -> (
        match step ~fuel mode prog cfg ei with
        | Value -> Wrong "impossible: non-value classified as value"
        | Wrong m -> Wrong m
        | Next (cfg', ei') ->
            Next (cfg', rebuild (List.mapi (fun j e -> if j = i then ei' else e) es)))
  in
  match e with
  | Ast.Val _ -> Value
  | Ast.Var x -> Wrong (Fmt.str "unbound variable %s" x)
  | Ast.Tuple es -> (
      match first_nonvalue es with
      | None -> Value (* a tuple of values is a value *)
      | Some _ -> step_list es (fun es -> Ast.Tuple es))
  | Ast.App (e1, e2) -> (
      if not (Ast.is_value e1) then sub_step e1 (fun e1' -> Ast.App (e1', e2))
      else if not (Ast.is_value e2) then
        sub_step e2 (fun e2' -> Ast.App (e1, e2'))
      else
        (* EP-APP *)
        match Ast.as_value e1 with
        | Some (Ast.VLam (x, _, body)) ->
            let arg = Option.get (Ast.as_value e2) in
            Next (cfg, Subst.beta x body arg)
        | _ -> Wrong "application of a non-function value")
  | Ast.Fn f -> (
      (* EP-FUN *)
      match Program.find_func prog f with
      | Some (_, body) -> Next (cfg, body)
      | None -> Wrong (Fmt.str "undefined function %s" f))
  | Ast.Proj (e1, n) -> (
      if not (Ast.is_value e1) then sub_step e1 (fun e1' -> Ast.Proj (e1', n))
      else
        (* EP-TUPLE *)
        match Ast.as_value e1 with
        | Some (Ast.VTuple vs) -> (
            match List.nth_opt vs (n - 1) with
            | Some v -> Next (cfg, Ast.Val v)
            | None -> Wrong (Fmt.str "projection .%d out of range" n))
        | _ -> Wrong "projection from a non-tuple")
  | Ast.Get g -> (
      (* EP-GLOBAL-1 / EP-GLOBAL-2 *)
      match Store.read prog g cfg.store with
      | Some v -> Next (cfg, Ast.Val v)
      | None -> Wrong (Fmt.str "undefined global %s" g))
  | Ast.Set (g, e1) -> (
      if not (Eff.sub Eff.State mode) then
        Wrong (Fmt.str "global write to %s outside state effect" g)
      else if not (Ast.is_value e1) then
        sub_step e1 (fun e1' -> Ast.Set (g, e1'))
      else
        (* ES-ASSIGN *)
        match Ast.as_value e1 with
        | Some v ->
            Next ({ cfg with store = Store.write g v cfg.store }, Ast.eunit)
        | None -> Wrong "impossible")
  | Ast.Push (p, e1) -> (
      if not (Eff.sub Eff.State mode) then
        Wrong "push outside state effect"
      else if not (Ast.is_value e1) then
        sub_step e1 (fun e1' -> Ast.Push (p, e1'))
      else
        (* ES-PUSH *)
        match Ast.as_value e1 with
        | Some v ->
            Next
              ( { cfg with queue = Fqueue.enqueue (Event.Push (p, v)) cfg.queue },
                Ast.eunit )
        | None -> Wrong "impossible")
  | Ast.Pop ->
      (* ES-POP *)
      if not (Eff.sub Eff.State mode) then Wrong "pop outside state effect"
      else
        Next
          ({ cfg with queue = Fqueue.enqueue Event.Pop cfg.queue }, Ast.eunit)
  | Ast.Boxed (id, inner) ->
      (* ER-BOXED, with its big-step premise (C,S,eps,e) ->r* (C,S,B',v) *)
      if not (Eff.sub Eff.Render mode) then
        Wrong "boxed outside render effect"
      else
        let rec run fuel' (c : cfg) (e : Ast.expr) =
          if fuel' <= 0 then raise Out_of_fuel
          else
            match step ~fuel Eff.Render prog c e with
            | Value -> Ok (c.box, Option.get (Ast.as_value e))
            | Next (c', e') -> run (fuel' - 1) c' e'
            | Wrong m -> Error m
        in
        (match run fuel { cfg with box = [] } inner with
        | Ok (inner_box, v) ->
            Next
              ( { cfg with box = cfg.box @ [ Boxcontent.Box (id, inner_box) ] },
                Ast.Val v )
        | Error m -> Wrong m)
  | Ast.Post e1 -> (
      if not (Eff.sub Eff.Render mode) then Wrong "post outside render effect"
      else if not (Ast.is_value e1) then
        sub_step e1 (fun e1' -> Ast.Post e1')
      else
        (* ER-POST *)
        match Ast.as_value e1 with
        | Some v ->
            Next
              ({ cfg with box = cfg.box @ [ Boxcontent.Leaf v ] }, Ast.eunit)
        | None -> Wrong "impossible")
  | Ast.SetAttr (a, e1) -> (
      if not (Eff.sub Eff.Render mode) then
        Wrong "attribute write outside render effect"
      else if not (Ast.is_value e1) then
        sub_step e1 (fun e1' -> Ast.SetAttr (a, e1'))
      else
        (* ER-ATTR *)
        match Ast.as_value e1 with
        | Some v ->
            Next
              ( { cfg with box = cfg.box @ [ Boxcontent.Attr (a, v) ] },
                Ast.eunit )
        | None -> Wrong "impossible")
  | Ast.Prim (name, ts, es) -> (
      match first_nonvalue es with
      | Some _ -> step_list es (fun es -> Ast.Prim (name, ts, es))
      | None -> (
          let vs = List.map (fun e -> Option.get (Ast.as_value e)) es in
          match Prim.delta name ts vs with
          | Ok e' -> Next (cfg, e')
          | Error m -> Wrong m))

(** The paper's three relations, as wrappers over {!step}. *)
let step_pure ?fuel prog store e =
  match step ?fuel Eff.Pure prog (cfg_of_store store) e with
  | Value -> Value
  | Wrong m -> Wrong m
  | Next (cfg, e') ->
      (* pure steps touch nothing *)
      assert (Store.equal cfg.store store);
      Next (cfg, e')

let step_state ?fuel prog store queue e =
  step ?fuel Eff.State prog { store; queue; box = [] } e

let step_render ?fuel prog store box e =
  step ?fuel Eff.Render prog { store; queue = Fqueue.empty; box } e

(** Reduce to a value with iterated small steps (the [->mu*] closure).
    Raises {!Stuck} or {!Out_of_fuel}. *)
let run_small ?(fuel = default_fuel) (mode : Eff.t) (prog : Program.t)
    (cfg : cfg) (e : Ast.expr) : cfg * Ast.value =
  let rec go fuel cfg e =
    if fuel <= 0 then raise Out_of_fuel
    else
      match step ~fuel mode prog cfg e with
      | Value -> (cfg, Option.get (Ast.as_value e))
      | Next (cfg', e') -> go (fuel - 1) cfg' e'
      | Wrong m -> raise (Stuck m)
  in
  go fuel cfg e

(* ================================================================== *)
(* Big-step evaluator                                                  *)
(* ================================================================== *)

(** Read-set tracing for the render memoization cache
    ({!Render_cache}): a stack of open scopes, one per [boxed]
    subexpression being evaluated for the first time, plus the root
    scope of the whole render.  Each global read is recorded (once —
    render mode cannot change the store, so a global's value is stable
    within one render) in the innermost scope; when a scope closes its
    reads are folded into its parent, so every scope ends up with the
    {e transitive} read set of its subtree. *)
type readscope = (Ident.global, Ast.value) Hashtbl.t

type tracer = { mutable scopes : readscope list  (** innermost first *) }

type ctx = {
  prog : Program.t;
  mutable fuel : int;
  mutable store : Store.t;
  mutable queue : Event.t Fqueue.t;
  trace : tracer option;  (** read-set tracing, on for cached renders *)
  memo : Render_cache.t option;  (** subtree memoization, ditto *)
}

let tick (c : ctx) =
  c.fuel <- c.fuel - 1;
  if c.fuel <= 0 then raise Out_of_fuel

let record_read (c : ctx) (g : Ident.global) (v : Ast.value) : unit =
  match c.trace with
  | None -> ()
  | Some { scopes = scope :: _; _ } ->
      if not (Hashtbl.mem scope g) then Hashtbl.add scope g v
  | Some { scopes = []; _ } -> ()

let record_reads (c : ctx) (reads : Render_cache.reads) : unit =
  List.iter (fun (g, v) -> record_read c g v) reads

let scope_reads (scope : readscope) : Render_cache.reads =
  Hashtbl.fold (fun g v acc -> (g, v) :: acc) scope []

(* Box accumulators are reversed lists for O(1) append. *)
type boxacc = Boxcontent.item list ref

let rec eval (mode : Eff.t) (c : ctx) (box : boxacc option) (e : Ast.expr) :
    Ast.value =
  tick c;
  match e with
  | Ast.Val v -> v
  | Ast.Var x -> stuck "unbound variable %s" x
  | Ast.Tuple es -> Ast.VTuple (List.map (eval mode c box) es)
  | Ast.App (e1, e2) -> (
      let f = eval mode c box e1 in
      let arg = eval mode c box e2 in
      match f with
      | Ast.VLam (x, _, body) ->
          (* values produced from a closed program are closed, so
             capture-avoidance is unnecessary (see {!Subst.subst_expr}) *)
          eval mode c box (Subst.beta ~closed_arg:true x body arg)
      | _ -> stuck "application of a non-function value")
  | Ast.Fn f -> (
      match Program.find_func c.prog f with
      | Some (_, body) -> eval mode c box body
      | None -> stuck "undefined function %s" f)
  | Ast.Proj (e1, n) -> (
      match eval mode c box e1 with
      | Ast.VTuple vs -> (
          match List.nth_opt vs (n - 1) with
          | Some v -> v
          | None -> stuck "projection .%d out of range" n)
      | _ -> stuck "projection from a non-tuple")
  | Ast.Get g -> (
      match Store.read c.prog g c.store with
      | Some v ->
          record_read c g v;
          v
      | None -> stuck "undefined global %s" g)
  | Ast.Set (g, e1) ->
      if not (Eff.sub Eff.State mode) then
        stuck "global write to %s outside state effect" g
      else begin
        let v = eval mode c box e1 in
        c.store <- Store.write g v c.store;
        Ast.vunit
      end
  | Ast.Push (p, e1) ->
      if not (Eff.sub Eff.State mode) then stuck "push outside state effect"
      else begin
        let v = eval mode c box e1 in
        c.queue <- Fqueue.enqueue (Event.Push (p, v)) c.queue;
        Ast.vunit
      end
  | Ast.Pop ->
      if not (Eff.sub Eff.State mode) then stuck "pop outside state effect"
      else begin
        c.queue <- Fqueue.enqueue Event.Pop c.queue;
        Ast.vunit
      end
  | Ast.Boxed (id, inner) -> (
      match box with
      | Some parent when Eff.sub Eff.Render mode -> (
          match c.memo with
          | None ->
              let acc : boxacc = ref [] in
              let v = eval mode c (Some acc) inner in
              parent := Boxcontent.Box (id, List.rev !acc) :: !parent;
              v
          | Some memo -> eval_boxed_memo mode c parent memo id inner)
      | _ -> stuck "boxed outside render effect")
  | Ast.Post e1 -> (
      match box with
      | Some acc when Eff.sub Eff.Render mode ->
          let v = eval mode c box e1 in
          acc := Boxcontent.Leaf v :: !acc;
          Ast.vunit
      | _ -> stuck "post outside render effect")
  | Ast.SetAttr (a, e1) -> (
      match box with
      | Some acc when Eff.sub Eff.Render mode ->
          let v = eval mode c box e1 in
          acc := Boxcontent.Attr (a, v) :: !acc;
          Ast.vunit
      | _ -> stuck "attribute write outside render effect")
  | Ast.Prim (name, ts, es) -> (
      let vs = List.map (eval mode c box) es in
      match Prim.delta name ts vs with
      | Ok (Ast.Val v) -> v
      | Ok e' -> eval mode c box e'
      | Error m -> raise (Stuck m))

(** A [boxed] expression under memoization.  [inner] is closed
    (substitution already happened), so (inner, code, read globals)
    determines the produced subtree: on a valid cache entry splice it
    in without evaluating; otherwise evaluate under a fresh read scope
    and record the entry.  Either way the subtree's reads are folded
    into the enclosing scope, keeping parents' read sets transitive. *)
and eval_boxed_memo (mode : Eff.t) (c : ctx) (parent : boxacc)
    (memo : Render_cache.t) (id : Srcid.t option) (inner : Ast.expr) :
    Ast.value =
  let key = Render_cache.subtree_key id inner in
  match Render_cache.find memo key ~prog:c.prog ~store:c.store with
  | Some entry ->
      parent := entry.Render_cache.item :: !parent;
      let globals = entry.Render_cache.globals in
      for j = 0 to Array.length globals - 1 do
        record_read c globals.(j) entry.Render_cache.vals.(j)
      done;
      entry.Render_cache.value
  | None ->
      let scope : readscope = Hashtbl.create 8 in
      (match c.trace with
      | Some tr -> tr.scopes <- scope :: tr.scopes
      | None -> ());
      let acc : boxacc = ref [] in
      let v = eval mode c (Some acc) inner in
      (match c.trace with
      | Some tr -> tr.scopes <- List.tl tr.scopes
      | None -> ());
      let item = Boxcontent.Box (id, List.rev !acc) in
      parent := item :: !parent;
      let reads = scope_reads scope in
      Render_cache.add memo key ~prog:c.prog ~value:v ~item ~reads;
      record_reads c reads;
      v

(** Evaluate a pure expression: [(C, S, e) ->p* (C, S, v)]. *)
let eval_pure ?(fuel = default_fuel) (prog : Program.t) (store : Store.t)
    (e : Ast.expr) : Ast.value =
  let c =
    { prog; fuel; store; queue = Fqueue.empty; trace = None; memo = None }
  in
  eval Eff.Pure c None e

(** Evaluate in standard mode: returns the value, final store, and the
    events the expression enqueued. *)
let eval_state ?(fuel = default_fuel) (prog : Program.t) (store : Store.t)
    (queue : Event.t Fqueue.t) (e : Ast.expr) :
    Ast.value * Store.t * Event.t Fqueue.t =
  let c = { prog; fuel; store; queue; trace = None; memo = None } in
  let v = eval Eff.State c None e in
  (v, c.store, c.queue)

(** Evaluate in render mode against an implicit top-level box ("our
    model has an implicit top-level box, so render code can set
    attributes even outside a boxed statement", Sec. 4.3).  The store
    is read-only by construction. *)
let eval_render ?(fuel = default_fuel) (prog : Program.t) (store : Store.t)
    (e : Ast.expr) : Ast.value * Boxcontent.t =
  let c =
    { prog; fuel; store; queue = Fqueue.empty; trace = None; memo = None }
  in
  let acc : boxacc = ref [] in
  let v = eval Eff.Render c (Some acc) e in
  (v, List.rev !acc)

(** {!eval_render} with read-set tracing and (optionally) subtree
    memoization against [memo]: additionally returns the set of globals
    the render read, with the values it observed — the dependency
    record that lets [Machine.render] revalidate the whole display next
    time without evaluating anything. *)
let eval_render_traced ?(fuel = default_fuel) ?memo (prog : Program.t)
    (store : Store.t) (e : Ast.expr) :
    Ast.value * Boxcontent.t * Render_cache.reads =
  let root : readscope = Hashtbl.create 16 in
  let c =
    {
      prog;
      fuel;
      store;
      queue = Fqueue.empty;
      trace = Some { scopes = [ root ] };
      memo;
    }
  in
  let acc : boxacc = ref [] in
  let v = eval Eff.Render c (Some acc) e in
  (v, List.rev !acc, scope_reads root)
