(** Fleet-wide UPDATE: one code edit applied as one transaction across
    every live session — the only path by which the host's code
    changes.

    The paper's key move is that a code update is just another
    transition (UPDATE, Fig. 9), so swapping the program under a
    running session is always safe; the host lifts that to a fleet.
    The edit is typechecked {b once} ([C' |- C'] plus the start-page
    condition); on failure {e no} session is touched (all-or-nothing).
    On success every session runs the UPDATE transition against the
    already-checked code ([update ~checked:true]): its store and page
    stack are fixed up per Fig. 12, its display is invalidated and
    re-rendered, and the per-session fix-up report ("your edit reset
    global xs") is collected into the fan-out report.

    The transaction has two halves: {!prepare} opens the edit as a
    second live code epoch without touching a session, and {!commit}
    migrates the fleet to it ({!abort} retires it instead).  {!update}
    is one then the other; a shard's two-phase [Prepare] / [Commit] /
    [Abort] runs them as separate steps, and a staged {!Rollout}
    migrates a canary cohort ({!migrate}) in between.

    The whole pipeline is O(edit), not O(program × fleet): the edit is
    {e diffed} against the current program ({!Live_core.Program_diff}),
    the typecheck re-derives only the recheck set
    ({!Live_core.Machine.check_program_incremental}), the target
    epoch's compilation reuses every transitively-clean definition
    ({!Live_core.Compile_eval.derive}) and its render tables keep every
    clean entry, built once for the fleet
    ({!Live_core.Render_cache.retarget_tables}), and each session's
    fix-up and display-entry invalidation are scoped to the dirty set
    (the [?diff] path of {!Live_runtime.Session.update}).  All of it is
    observationally transparent — the conformance oracle's
    ["host-incr"] configuration and the [Cross_check] mode below
    enforce agreement with the from-scratch pipeline.  Call it between
    {!Scheduler.tick}s, never during one. *)

type session_outcome = {
  id : Registry.id;
  outcome : (Live_core.Fixup.report, Live_core.Machine.error) result;
      (** per-session UPDATE result; errors here are runtime (fuel,
          stuck user code) — the typecheck can no longer fail *)
}

(** How the UPDATE premise [C' |- C'] is discharged. *)
type typecheck_mode =
  | Scratch  (** the Fig. 11 checker over the whole program *)
  | Incremental
      (** re-derive only the diff's recheck set — requires the old
          program to be known-good ({!Registry.program_checked});
          falls back to [Scratch] otherwise (e.g. the first broadcast
          after boot).  The default. *)
  | Cross_check
      (** run {e both} and require bit-identical verdicts (same
          accept/reject, same first error); a disagreement rejects the
          broadcast with a distinctive [Ill_typed "typecheck
          divergence: ..."] — the conformance fuzzer runs every
          generated [Mutate] edit through this mode, so a divergence
          surfaces as a shrinkable counterexample *)

type report = {
  outcomes : session_outcome list;
      (** the sessions {!commit} migrated, in spawn order *)
  fanout_ns : float;  (** elapsed time of the commit *)
  typecheck_ns : float;  (** the typecheck phase (whichever mode ran) *)
  diff_ns : float;  (** computing the program diff *)
  compile_ns : float;
      (** making the target epoch: its compilation and render tables *)
  dirty_defs : int;  (** semantic dirty-set size (scoped invalidation) *)
  recheck_defs : int;  (** typecheck recheck-set size *)
  incremental : bool;
      (** whether the accepted broadcast actually reused derivations
          (false under [Scratch], under fallback, and on the boot
          program) *)
  dropped_globals : int;  (** total across the migrated sessions *)
  dropped_pages : int;
}

type txn
(** An open edit transaction: typechecked, compiled, its target
    registered as the registry's second live epoch. *)

val prepare :
  ?typecheck:typecheck_mode ->
  Registry.t ->
  Live_core.Program.t ->
  (txn, Live_core.Machine.error) result
(** Diff the edit against the installed program, discharge [C' |- C']
    once ([typecheck] defaults to [Incremental]) and open the target
    epoch ({!Registry.open_rollout}: its compilation and its render
    tables, derived from the installed epoch's when the incremental
    premise held, timed as [compile_ns]).  The per-phase times land in
    the registry's {!Host_metrics}.  [Error] means nothing happened,
    counted in [updates_rejected]: the typecheck refused the edit, or
    a transaction is already open ([Not_enabled]; at most two epochs
    are ever live). *)

val migrate : txn -> Registry.id -> session_outcome option
(** Move one session to the target epoch: its epoch pin (so its
    render cache uses the target's tables), then its UPDATE transition
    against the checked code.
    [None] for an unknown id.
    @raise Invalid_argument if the transaction is resolved. *)

val commit : txn -> report
(** {!migrate} every session not yet on the target epoch — including
    any spawned since {!prepare} — in spawn order, then install the
    target ({!Registry.promote_rollout}) and release the pins.  Counts
    one [updates_applied] and records the fan-out time.
    @raise Invalid_argument if the transaction is resolved. *)

val abort : txn -> unit
(** Retire the target epoch; the base stays installed.  Sessions
    {!migrate}d to the target must have been moved back by the caller
    ({!Rollout.rollback} rewinds them).
    @raise Invalid_argument if the transaction is resolved. *)

val update :
  ?typecheck:typecheck_mode ->
  Registry.t ->
  Live_core.Program.t ->
  (report, Live_core.Machine.error) result
(** Apply the edit to the whole fleet: {!prepare}, then {!commit}.
    [Error] is {!prepare}'s, and {e every} session is untouched. *)

val base_epoch : txn -> int
val target_epoch : txn -> int
val diff : txn -> Live_core.Program_diff.t

val incremental : txn -> bool
(** Whether the incremental premise held (see {!report}). *)
