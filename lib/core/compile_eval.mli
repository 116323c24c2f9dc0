(** Closure-compiled evaluation: the Fig. 8 relations, compiled once.

    The substitution evaluator ({!Eval}) pays [Subst.beta] — an
    O(|body|) copy — on every application.  This module instead
    {e compiles} each program once into OCaml closures over a
    slot-indexed environment: variables are resolved to environment
    slots at compile time, so at run time there is no substitution and
    no free-variable scan.  The classic interpreter optimisation in the
    lineage of Feeley & Lapalme's "using closures for code generation".

    The compiled code implements the {e same} relations — all three
    effect modes [p]/[s]/[r], the same dynamic effect discipline, the
    same stuck messages, the same read-set tracing that {!Render_cache}
    depends on — and is checked byte-identical against the substitution
    machine by the conformance oracle's ["compiled"] configuration and
    the property tests in [test/test_compile_eval.ml].

    Lambda values that {e escape} (are returned, stored, or passed to a
    primitive) are reified back to plain {!Ast.value} lambdas by
    substituting the environment slots they capture — so observable
    values are exactly what substitution would have produced, and the
    rest of the system (display handlers, the store, the oracle's
    observations) needs no changes.

    Compiled code is {b immutable} after {!get} returns: the per-program
    tables are populated during compilation and only read afterwards,
    so one compiled program is shared by every session running it.
    {!get} memoizes by physical program identity through an ephemeron:
    a compilation lives exactly as long as its program, so a program
    that is still running is never compiled twice and its subtree site
    ids stay valid in every render cache that recorded them. *)

type t
(** A program compiled to closures.  Immutable. *)

val get : Program.t -> t
(** Compile, or return the cached compilation of this exact (physically
    identical) program.  The registry compiles each code epoch once, so
    the whole fleet shares one compilation. *)

val get_incremental : diff:Program_diff.t -> Program.t -> t
(** Like {!get}, but when the diff's old program is still in the
    compile cache, reuse its compiled definitions for every name the
    diff proves transitively clean and recompile only the dirty ones —
    O(edit) instead of O(program) for a small edit.  Reused definitions
    keep their subtree memoization site ids, so a session's
    {!Render_cache} compiled-subtree entries for clean code stay valid
    across the swap (see {!Render_cache.retarget} and {!site_live});
    recompiled definitions get fresh ids, making their stale entries
    unreachable.  Falls back to a full {!compile} when the old program
    is gone.  The result is published in the same cache, so subsequent
    {!get} calls for the new program hit. *)

val derive : diff:Program_diff.t -> t -> Program.t -> t
(** {!get_incremental} from a given compilation of the diff's old
    program (a registry epoch's); a full compile if it is not one. *)

val site_live : t -> int -> bool
(** Whether a [boxed] memoization site id belongs to this compilation
    (stamped fresh, or carried over from the previous compilation by
    {!get_incremental}).  {!Render_cache.retarget} uses this as the
    compiled-subtree retention predicate. *)

val compile : Program.t -> t
(** Always compile afresh (benchmarks measuring compilation cost). *)

val program : t -> Program.t

(** {1 The Fig. 9 entry points}

    These mirror what {!Machine} evaluates with the substitution
    engine: THUNK runs [v ()] in state mode, PUSH runs the page's init
    code, RENDER the page's render code.  Page init/render bodies are
    compiled once per program (not per call), so [boxed] subtree
    memoization sites stay stable across renders.

    All raise {!Eval.Stuck} and {!Eval.Out_of_fuel} exactly like the
    substitution evaluator. *)

val run_thunk :
  ?fuel:int ->
  t ->
  Store.t ->
  Event.t Fqueue.t ->
  Ast.value ->
  Ast.value * Store.t * Event.t Fqueue.t
(** Apply a handler value to [()] in state mode (rule THUNK). *)

val run_page_init :
  ?fuel:int ->
  t ->
  page:Ident.page ->
  Store.t ->
  Event.t Fqueue.t ->
  Ast.value ->
  Ast.value * Store.t * Event.t Fqueue.t
(** Run page [page]'s init code on the argument in state mode (rule
    PUSH).  @raise Eval.Stuck if the page does not exist. *)

val run_page_render :
  ?fuel:int ->
  t ->
  page:Ident.page ->
  Store.t ->
  Ast.value ->
  Ast.value * Boxcontent.t
(** Run page [page]'s render code in render mode (rule RENDER). *)

val run_page_render_traced :
  ?fuel:int ->
  ?memo:Render_cache.t ->
  t ->
  page:Ident.page ->
  Store.t ->
  Ast.value ->
  Ast.value * Boxcontent.t * Render_cache.reads
(** {!run_page_render} with read-set tracing and (optionally) [boxed]
    subtree memoization: compiled subtree sites are keyed by (site,
    captured environment values) in [memo] — see
    {!Render_cache.site_key} — no expression reification needed on the
    hot path. *)

(** {1 Arbitrary expressions}

    Compile-and-run counterparts of {!Eval.eval_pure} /
    {!Eval.eval_state} / {!Eval.eval_render}, for tests and tools.
    The expression is compiled on the fly (cost O(|e|), like one
    substitution pass), so prefer the entry points above in hot
    paths. *)

val eval_pure : ?fuel:int -> t -> Store.t -> Ast.expr -> Ast.value

val eval_state :
  ?fuel:int ->
  t ->
  Store.t ->
  Event.t Fqueue.t ->
  Ast.expr ->
  Ast.value * Store.t * Event.t Fqueue.t

val eval_render :
  ?fuel:int -> t -> Store.t -> Ast.expr -> Ast.value * Boxcontent.t

val eval_render_traced :
  ?fuel:int ->
  ?memo:Render_cache.t ->
  t ->
  Store.t ->
  Ast.expr ->
  Ast.value * Boxcontent.t * Render_cache.reads

(** {1 Introspection} *)

val cache_size : unit -> int
(** Number of live programs in the compile cache (tests). *)
