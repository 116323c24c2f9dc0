(** Dependency-tracked memoization of render evaluation.

    Sound because render code has effect [r]: a boxed subexpression is
    closed (substitution-based evaluation) and may only {e read}
    globals, so its output is a pure function of (the expression, the
    code, the values of the globals it read) — nothing per session.
    Subtree entries therefore live in {!tables} that every session on
    a code epoch shares, indexed by key and by the values their reads
    observed, under one two-generation bound; each session renders
    through its own handle {!t}, which keeps its display entries and
    its counters.  Entries are replayed only under physically
    identical code and a store in which every recorded read observes
    the same value. *)

type reads = (Ident.global * Ast.value) list
(** Globals read during one evaluation, with the observed values. *)

type entry = private {
  globals : Ident.global array;  (** the globals read, in read order *)
  vals : Ast.value array;  (** the value observed for each *)
  value : Ast.value;  (** the value the subexpression produced *)
  item : Boxcontent.item;  (** the [Box] item it appended to its parent *)
}
(** One recorded evaluation of a [boxed] subexpression. *)

type key
(** What a subtree is memoized under: a compiled site and the values
    it captures ({!site_key}), or a source id and the closed
    subexpression ({!subtree_key}). *)

val site_key : site:int -> args:Ast.value list -> key
(** The compiled evaluator's key ({!Compile_eval}): a compile-time
    site id, standing for the expression skeleton of one compilation
    of one program, plus the values of the environment slots the
    subtree captures, standing for everything substitution would have
    filled in. *)

val subtree_key : Srcid.t option -> Ast.expr -> key
(** The substitution evaluator's key ({!Eval}): the closed
    subexpression itself, verified structurally on every hit. *)

type stats = {
  hits : int;  (** subtree entries spliced without evaluation *)
  misses : int;  (** subtree evaluations that populated an entry *)
  revalidations : int;  (** whole displays revalidated without evaluation *)
  flushes : int;  (** wholesale invalidations (code changes) *)
  retargets : int;  (** scoped invalidations ({!retarget} diffed swaps) *)
  evictions : int;  (** entries dropped by scoped invalidation *)
}

type tables
(** Subtree tables: both layers, bound to one program.  At most
    {!bound} entries. *)

type t
(** A session's handle: its display entries, its counters, and the
    tables it renders against — its own, or an epoch's. *)

val bound : int
(** The most entries one set of tables holds: two generations of N =
    8,192.  The young generation takes every new entry and every key
    moved out of the old one; when it would overflow it becomes the old
    one, and the old one is dropped.  A key keeps at most K = 64
    entries that differ in the values they read; a new one beyond K
    replaces the key's oldest. *)

val create : unit -> t
(** A handle with tables of its own (a session outside a registry). *)

val create_tables : Program.t -> tables
(** Empty tables for an epoch running this program. *)

val share : tables -> t
(** A handle rendering against shared tables. *)

val bind : t -> tables -> unit
(** Point the handle at other shared tables (the registry moving a
    session between epochs).  Display entries stay: they carry their
    own code. *)

val retarget_tables :
  tables -> diff:Program_diff.t -> keep_csite:(int -> bool) -> Program.t -> tables
(** The next epoch's tables, built once for all its sessions from the
    base epoch's: a compiled-subtree slot survives iff [keep_csite]
    accepts its site id (pass the new compilation's
    {!Compile_eval.site_live} — reused definitions keep their site
    ids, recompiled ones get fresh ids), an expression slot iff every
    definition its expression references is transitively clean
    ({!Program_diff.expr_clean}).  Hits still re-validate their reads
    against the {e new} program's store semantics, so changed initial
    values miss as they must.  The base tables are untouched (their
    sessions may still render until the transaction resolves); empty
    tables when the base is not bound to the diff's old program. *)

val stats : t -> stats

val size : t -> int
(** Entries in the handle's tables — for an epoch's tables, those of
    every session on the epoch. *)

val swaps : t -> int
(** Generation swaps of the handle's tables so far. *)

val flush : t -> unit
(** Drop every entry the handle reaches: its display entries and its
    tables' entries, which for shared tables are every session's
    (counted in {!stats}.flushes). *)

val drop_displays : t -> unit
(** Drop the handle's display entries only. *)

val ensure_code : t -> Program.t -> unit
(** Bind the handle to this code: display entries recorded under other
    code are dropped, and tables of other code are left to whoever
    else renders against them — the handle moves to fresh tables.
    Call before consulting the cache for a render. *)

val retarget :
  t ->
  diff:Program_diff.t ->
  keep_csite:(int -> bool) Lazy.t ->
  Program.t ->
  unit
(** Scoped invalidation of one handle on a code swap: display entries
    survive iff their page is transitively clean
    ([not (Program_diff.is_dirty diff page)]); tables still bound to
    the diff's old program (a handle's own) are replaced by their
    {!retarget_tables} copy, and only then is [keep_csite] forced.
    A handle the registry already rebound to the new epoch's tables
    keeps them.  What is not bound to the diff's old program is left
    to {!ensure_code}. *)

val set_sabotage_no_flush : t -> bool -> unit
(** Test-only: make code changes and {!bind} keep every entry and
    lookups skip the code check — a deliberately broken cache, used by
    the conformance fuzzer to prove the differential oracle catches
    the resulting stale-display divergence. *)

val find : t -> key -> prog:Program.t -> store:Store.t -> entry option
(** A replayable entry: same key (verified structurally), code
    physically [prog], every recorded read unchanged in [store].
    Counts a hit or a miss. *)

val add :
  t ->
  key ->
  prog:Program.t ->
  value:Ast.value ->
  item:Boxcontent.item ->
  reads:reads ->
  unit
(** Record an evaluation (nothing, unless the tables run [prog]). *)

val find_display :
  t ->
  page:Ident.page ->
  arg:Ast.value ->
  prog:Program.t ->
  store:Store.t ->
  Boxcontent.t option
(** The whole-display fast path: the previous render of this page with
    the same argument whose read globals all still hold the observed
    values.  {!ensure_code} must have been called for the current
    code. *)

val add_display :
  t -> page:Ident.page -> arg:Ast.value -> reads:reads -> Boxcontent.t -> unit

val pp_stats : Format.formatter -> stats -> unit
