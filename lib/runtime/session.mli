(** An interactive session: a system state driven by the Fig. 9
    transitions and connected to the character-cell display.  Every
    public operation leaves the state stable with a valid display
    (Sec. 4.2's liveness loop). *)

type t

type damage_totals = {
  frames : int;  (** display reads that painted something *)
  skipped_frames : int;  (** identical frames reused outright *)
  full_repaints : int;  (** height changes forcing a full paint *)
  repainted_rows : int;  (** dirty rows actually repainted *)
  total_rows : int;  (** rows a full repaint would have painted *)
}

val create :
  ?width:int ->
  ?fuel:int ->
  ?incremental:bool ->
  ?cache:bool ->
  ?tables:Live_core.Render_cache.tables ->
  ?evaluator:Live_core.Machine.evaluator ->
  Live_core.Program.t ->
  (t, Live_core.Machine.error) result
(** Boot to the first stable state.  [incremental] turns on the
    Sec. 5 layout-reuse cache (pixel-identical; see
    [test/test_incremental.ml]).  [cache] turns on the end-to-end
    incremental render pipeline: dependency-tracked RENDER memoization
    ({!Live_core.Render_cache}), layout reuse for revalidated
    displays, and damage-tracked repainting — also observationally
    transparent (see [test/test_render_cache.ml]).  Its subtree
    tables are [tables], shared with every session on a registry's
    code epoch, or else the session's own.  [evaluator]
    selects the expression engine (default
    {!Live_core.Machine.Compiled}: programs compiled once to closures;
    byte-identical to substitution, see [test/test_compile_eval.ml]
    and the oracle's ["compiled"] configuration). *)

val evaluator : t -> Live_core.Machine.evaluator
val fuel : t -> int
(** The evaluator fuel bound this session runs under. *)

val state : t -> Live_core.State.t
val store : t -> Live_core.Store.t
val trace : t -> Trace.t
val width : t -> int
val current_page : t -> (string * Live_core.Ast.value) option

val display_content : t -> Live_core.Boxcontent.t option
(** [None] iff the display is [⊥] (never, between operations). *)

val layout : t -> Live_ui.Layout.node option
(** The current display's layout, cached until the next transition. *)

val paint : t -> unit
(** Paint the current display unless the last painted frame already
    shows it.  Every session keeps its last frame, keyed by the
    display's physical identity; sessions with [cache] repaint only the
    damaged rows, plain ones repaint in full. *)

val rows : t -> string array
(** {!paint}, then the frame's rows, trailing blanks trimmed, in a
    fresh array.  A row unchanged since it was last read is the same
    string; [[|"<display invalid>"|]] iff the display is [⊥]. *)

val screenshot : t -> string
(** {!rows}, each followed by a newline. *)

val screenshot_ansi : t -> string

type tap_result =
  | Tapped  (** a handler ran and the display refreshed *)
  | No_handler  (** nothing tappable there *)

val tap : t -> x:int -> y:int -> (tap_result, Live_core.Machine.error) result
(** Tap at screen coordinates; recorded in the trace either way. *)

val tap_first : t -> (tap_result, Live_core.Machine.error) result

val back : t -> (unit, Live_core.Machine.error) result

val update :
  ?checked:bool ->
  ?diff:Live_core.Program_diff.t ->
  t ->
  Live_core.Program.t ->
  (Live_core.Fixup.report, Live_core.Machine.error) result
(** Apply the UPDATE transition and re-render; reports what the
    Fig. 12 fix-up deleted.  [checked] skips the new code's typecheck
    when the caller already discharged it with
    {!Live_core.Machine.check_program} (the host's typecheck-once
    broadcast).  [diff] (spanning exactly this session's current code
    and [new_code], else ignored) makes the whole swap O(edit): the
    fix-up re-checks only bindings whose declared types could have
    changed, and the render cache is retargeted instead of flushed, so
    memoized subtrees and displays of unchanged definitions survive —
    observable behaviour is byte-identical either way (the oracle's
    ["host-incr"] configuration enforces it). *)

val cache_stats : t -> (int * int) option
(** (hits, misses) of the incremental layout cache, if enabled. *)

val render_cache_stats : t -> Live_core.Render_cache.stats option
(** Hit/miss/revalidation/flush counters of the render memoization
    cache, if enabled. *)

val render_cache_handle : t -> Live_core.Render_cache.t option
(** The cache itself — exposed for the conformance fuzzer's fault
    injection (forced flushes, deliberate sabotage); ordinary clients
    should use {!render_cache_stats}. *)

(** {1 Fault injection (conformance fuzzing)}

    CRASH-style event-queue faults, injected identically into every
    oracle configuration so their observable behaviour must stay in
    agreement (see [lib/conformance]). *)

type fault =
  | Drop_next_event
      (** the event enqueued by the next successful tap/back is lost *)
  | Duplicate_next_event
      (** ... is delivered twice, back to back *)

val inject : t -> fault -> unit
(** Arm a one-shot queue fault; consumed by the next interaction that
    enqueues an event (a tap that hits a handler, or back). *)

val pending_fault : t -> fault option
(** The armed-but-not-yet-consumed fault, if any — persisted by
    {!Live_net.Snapshot} so a detached session resumes with the same
    fault still pending. *)

val restore :
  ?width:int ->
  ?fuel:int ->
  ?incremental:bool ->
  ?cache:bool ->
  ?evaluator:Live_core.Machine.evaluator ->
  ?trace:Trace.t ->
  ?fault:fault option ->
  store:Live_core.Store.t ->
  stack:(Live_core.Ident.page * Live_core.Ast.value) list ->
  Live_core.Program.t ->
  (t, Live_core.Machine.error) result
(** Rebuild a session from persisted state — the restore half of
    {!Live_net.Snapshot}.  The state is reassembled as
    [(C, ⊥, S, P, eps)] and driven to stability, which re-renders the
    display deterministically from the code, store and stack; a
    session restored from a detached session's snapshot is therefore
    byte-identical (store, stack, pixels) to one that was never
    detached.  [trace] re-installs the interaction history and [fault]
    a still-armed one-shot queue fault.  An empty [stack] boots from
    scratch (STARTUP runs, as in {!create}). *)

val flush_caches : t -> unit
(** Drop every warm incremental structure (render memoization cache,
    previous frame, memoized layout) — the cache's subtree tables are
    its epoch's, so every session on the epoch loses them.
    Observationally invisible — the fuzzer injects it mid-trace to
    stress the cache's cold paths. *)

val damage_stats : t -> damage_totals option
(** Cumulative damage-painting counters, if the cache is enabled. *)

(** {1 Checkpoint / rollback (staged rollouts)}

    The rollback contract of {!Live_host.Rollout}: a canary session
    checkpoints before taking the staged edit, journals every
    interaction it serves while canarying, and on rollback is rewound
    to the checkpoint and replayed — ending byte-identical to a
    session that never saw the edit.  (Merely re-UPDATE-ing back to
    the old code would {e not} be a no-op: the Fig. 12 fix-up resets
    state the edit touched.) *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture a rollback point and start journalling interactions
    ([tap], [back], [inject]).  Cheap: state, trace and pending fault
    are persistent values captured by reference. *)

val commit : t -> unit
(** Keep the current state; stop journalling and drop the journal. *)

val rewind : t -> checkpoint -> Live_core.Machine.error list
(** Restore the checkpoint and replay the journalled interactions on
    top of it.  Per-interaction errors are consumed and returned (the
    scheduler consumes per-event errors the same way on the live
    path); [[]] is a clean rewind. *)

val journalling : t -> bool
(** Whether a checkpoint is currently armed. *)

(** {1 Epoch pin} *)

val epoch : t -> int
(** The code epoch this session is pinned to (0 at creation); managed
    by {!Live_host.Registry}. *)

val pin : t -> epoch:int -> Live_core.Render_cache.tables option -> unit
(** Pin the session to a code epoch and, if it runs the render cache,
    point the cache at that epoch's subtree tables. *)
