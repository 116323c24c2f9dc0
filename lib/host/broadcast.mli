(** Fleet-wide UPDATE: one code edit applied as one transaction across
    every live session.

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

    The whole pipeline is O(edit), not O(program × fleet): the edit is
    {e diffed} against the current program ({!Live_core.Program_diff}),
    the typecheck re-derives only the recheck set
    ({!Live_core.Machine.check_program_incremental}), the shared
    compilation reuses every transitively-clean definition
    ({!Live_core.Compile_eval.get_incremental}), and each session's
    fix-up and render-cache invalidation are scoped to the dirty set
    (the [?diff] path of {!Live_runtime.Session.update}).  All of it is
    observationally transparent — the conformance oracle's
    ["host-incr"] configuration and the [Cross_check] mode below
    enforce agreement with the from-scratch pipeline. *)

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
  outcomes : session_outcome list;  (** in spawn order *)
  fanout_ns : float;  (** elapsed time to update the whole fleet *)
  typecheck_ns : float;  (** the typecheck phase (whichever mode ran) *)
  diff_ns : float;  (** computing the program diff *)
  compile_ns : float;  (** priming the shared compilation *)
  dirty_defs : int;  (** semantic dirty-set size (scoped invalidation) *)
  recheck_defs : int;  (** typecheck recheck-set size *)
  incremental : bool;
      (** whether the accepted broadcast actually reused derivations
          (false under [Scratch], under fallback, and on the boot
          program) *)
  dropped_globals : int;  (** total across sessions *)
  dropped_pages : int;
}

val run_typecheck :
  typecheck_mode ->
  old_checked:bool ->
  diff:Live_core.Program_diff.t ->
  Live_core.Program.t ->
  (unit, Live_core.Machine.error) result * bool
(** The typecheck phase alone: discharge [C' |- C'] for the diff's new
    program in the given mode.  Returns the verdict plus whether the
    incremental premise held (the diff may be handed down to fan-out
    and compilation).  Exposed for {!Rollout}, which typechecks an
    edit transaction once at [begin] time and fans out later, in
    stages. *)

val update :
  ?typecheck:typecheck_mode ->
  Registry.t ->
  Live_core.Program.t ->
  (report, Live_core.Machine.error) result
(** Apply the edit to the whole fleet.  [Error] means the new code
    failed its typecheck and {e every} session is untouched (the
    registry's shared program is unchanged too).  [typecheck] defaults
    to [Incremental].  The measured per-phase times land in the
    registry's {!Host_metrics} (typecheck / diff / compile last-ns,
    dirty and recheck set sizes, incremental-vs-scratch broadcast
    counters).
    While a staged rollout is open the broadcast refuses with
    [Not_enabled] (and counts an [updates_rejected]): resolve the
    rollout first. *)

val report_to_string : report -> string
(** One line per session that lost state, plus the fan-out total and
    the typecheck/diff/compile breakdown. *)
