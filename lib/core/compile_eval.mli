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
    so one compiled program is safely shared read-only across domains.
    {!get} memoizes by physical program identity in a lock-free
    (CAS-published) cache; a racing duplicate compilation is benign
    because compilation is deterministic up to cache-private subtree
    site ids. *)

type t
(** A program compiled to closures.  Immutable; safe to share across
    domains. *)

val get : Program.t -> t
(** Compile, or return the cached compilation of this exact (physically
    identical) program.  The broadcast path calls this once per UPDATE
    so the whole fleet shares one compilation. *)

val get_incremental : diff:Program_diff.t -> Program.t -> t
(** Like {!get}, but when the diff's old program is still in the
    compile cache, reuse its compiled definitions for every name the
    diff proves transitively clean and recompile only the dirty ones —
    O(edit) instead of O(program) for a small edit.  Reused definitions
    keep their subtree memoization site ids, so a session's
    {!Render_cache} compiled-subtree entries for clean code stay valid
    across the swap (see {!Render_cache.retarget} and {!site_live});
    recompiled definitions get fresh ids, making their stale entries
    unreachable.  Falls back to a full {!compile} when the old
    compilation has been evicted.  The result is published in the same
    cache, so subsequent {!get} calls for the new program hit. *)

(** {1 Epoch pins (edit transactions)}

    While an edit transaction is open ({!Live_host.Broadcast.prepare})
    the registry keeps two code epochs live at once; both compilations
    must stay resident until it resolves.  The LRU compile cache could
    evict the base epoch under unrelated compile traffic, and a
    re-compile issues fresh subtree site ids — orphaning the canary
    cohort's [csubtree] render-cache entries.  A pin is an eviction-proof cache
    entry keyed by an epoch id; {!get} and {!get_incremental} consult
    pins first, so every session of an epoch shares one physical
    compilation. *)

val pin_epoch : epoch:int -> ?diff:Program_diff.t -> Program.t -> unit
(** Compile [prog] (incrementally when [diff] spans old→[prog] and the
    old compilation is resident) and pin the result under [epoch],
    replacing any previous pin for that epoch. *)

val unpin_epoch : epoch:int -> unit
(** Drop the pin for [epoch] (idempotent).  The compilation may still
    live in the LRU cache; it just becomes evictable again. *)

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
    {!Render_cache.find_csubtree} — no expression reification needed
    on the hot path. *)

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
(** Number of programs currently in the compile cache (tests). *)
