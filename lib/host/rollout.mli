(** Transactional staged rollouts: an {e edit transaction} applied to
    the fleet in stages instead of one flat broadcast.

    A rollout is a layer over {!Broadcast}'s transaction, which does
    all the fleet-update work: the diff, the one typecheck, the
    compilation, the second live code epoch, the migration of each
    session and the final install.  Staging adds only what the window
    needs.  {!begin_} prepares the transaction (several program edits
    composed into one change set, {!compose}) and draws a
    deterministic canary cohort (seeded, {!Live_core.Prng.derive});
    {!canary} checkpoints and migrates that cohort while the shadow
    cohort keeps serving on the base epoch; the driver watches both
    cohorts side by side ({!observe}: per-cohort digests, accounting,
    epoch and state invariants) and resolves the transaction either
    way:

    - {!promote} commits the transaction, migrating the shadow cohort
      and retiring the base epoch.  The fleet ends {b byte-identical}
      to a one-shot {!Broadcast.update} of the same change set — the
      soundness statement, enforced by the oracle's ["host-txn"]
      configuration and [test/test_rollout.ml].
    - {!rollback} rewinds every canary to its pre-rollout checkpoint
      and replays the interactions it served while canarying
      ({!Live_runtime.Session.rewind}), then aborts the transaction,
      ending byte-identical to a fleet that never saw the edit.
      (Re-broadcasting the old code would {e not} do that: UPDATE's
      Fig. 12 fix-up resets state the edit touched.)

    Grounded in {e Edit Transactions: Dynamically Scoped Change Sets
    for Controlled Updates in Live Programming} (see PAPERS.md): the
    change set is the transaction, the canary cohort is its dynamic
    scope.

    Concurrency: every stage mutates fleet-shared structures (the
    epoch table, session pins, checkpoints), so call it between
    {!Scheduler.tick}s, never during one — the same discipline as a
    broadcast. *)

type stage =
  | Staged  (** typechecked and epoch-registered; no session touched *)
  | Canarying  (** the canary cohort runs the target epoch *)
  | Promoted  (** resolved: target installed fleet-wide *)
  | Rolled_back  (** resolved: canaries rewound, target retired *)

type t

val compose :
  base:Live_core.Program.t ->
  (Live_core.Program.t -> Live_core.Program.t) list ->
  Live_core.Program.t
(** Fold a list of edits over [base], first edit first — N edits, one
    change set, one diff/typecheck/compile. *)

val begin_ :
  ?typecheck:Broadcast.typecheck_mode ->
  ?fraction:float ->
  seed:int ->
  Registry.t ->
  Live_core.Program.t ->
  (t, Live_core.Machine.error) result
(** Stage an edit transaction: {!Broadcast.prepare} it ([typecheck]
    defaults to [Incremental]; the target opens as a second live epoch
    and no session is touched), then select the canary cohort — a
    deterministic [fraction] (default [0.1], at least one session) of
    the current fleet, drawn by seeded partial shuffle.  [Error] means
    the typecheck refused the change set and {e nothing} happened
    (counted in [updates_rejected]).
    @raise Invalid_argument if a transaction (staged or prepared) is
    already open. *)

val canary : t -> Broadcast.session_outcome list
(** Apply the target to the canary cohort ({!Broadcast.migrate}).
    Each canary checkpoints first ({!Live_runtime.Session.checkpoint})
    and starts journalling the traffic it serves, so {!rollback} stays
    exact whatever happens during the window.  Sessions killed since
    [begin_] are skipped.
    @raise Invalid_argument unless the stage is [Staged]. *)

val promote : t -> Broadcast.session_outcome list
(** Resolve by {!Broadcast.commit}: the shadow cohort and any session
    spawned mid-window migrate to the target, and the base epoch is
    retired; then every canary checkpoint is committed.  Returns the
    commit's outcomes (the sessions it migrated).  Fleet digest is
    byte-identical to a one-shot broadcast of the same change set.
    @raise Invalid_argument unless the stage is [Canarying]. *)

val rollback : t -> (Registry.id * Live_core.Machine.error) list
(** Resolve by rewinding every canary to its checkpoint and replaying
    its journalled window traffic, then {!Broadcast.abort}: the target
    epoch is retired and the fleet is byte-identical to one that never
    began the rollout.  Replay errors are consumed and returned, as
    the scheduler consumes per-event errors on the live path; [[]] is
    a clean rollback.  Allowed from [Staged] too (a rollout abandoned
    before canarying is a pure close).
    @raise Invalid_argument if already resolved. *)

(** {1 Observation (the canary-vs-shadow comparison)} *)

type health = {
  h_stage : stage;
  canary_digest : string;  (** {!Registry.digest_cohort} of the canaries *)
  shadow_digest : string;  (** ... of everyone else *)
  canary_accounting : Registry.cohort_accounting;
  shadow_accounting : Registry.cohort_accounting;
  accounting_ok : bool;  (** both cohort identities hold *)
  epoch_violations : (Registry.id * string) list;
      (** {!Registry.check_epochs}: sessions crossing epochs *)
  invariant_violations : (Registry.id * string) list;
      (** {!Registry.check_invariants} fleet-wide *)
}

val observe : t -> health
(** Both cohorts side by side, at any point in the rollout's life. *)

val healthy : health -> bool
(** Accounting holds and no epoch or state invariant is violated —
    the promote/rollback decision input. *)

(** {1 Introspection} *)

val stage : t -> stage
val canary_ids : t -> Registry.id list
(** Ascending; fixed at [begin_] time. *)

val shadow_ids : t -> Registry.id list
(** Everyone currently in the fleet but the canaries. *)

val base_epoch : t -> int
val target_epoch : t -> int

val summary : t -> string
(** One paragraph: stage, cohort sizes, epochs, and the change set's
    dirty definitions ({!Live_core.Program_diff.dirty_names}). *)
