(** The differential oracle: one trace, several semantic
    configurations, structural diffing after every step.

    Every configuration drives the same Fig. 9 transition system.  The
    reference is the uncached {!Live_core.Machine} with its own
    hit-testing; the restart baseline has no session to act on.  Every
    other configuration is a {e fleet of one} — a single live
    {!Live_runtime.Session} behind some transport — and one dispatch
    turns any such fleet into a configuration, so each layer says only
    how its transport differs:

    - [plain]: the session driven directly;
    - [hosted]: a {!Live_host.Registry} fleet of one — a tap is offered
      to the bounded ingress queue and drained by one tick of the
      {!Live_host.Scheduler} (batch 1, round-robin), an update goes
      through the typecheck-once {!Live_host.Broadcast};
    - [recycled]: a hosted fleet that detaches and resumes after every
      step: {!Live_net.Snapshot}, a {!Live_net.Wire} [Resume]
      round-trip, a byte-identical re-print check, restore, and
      adoption into a fresh registry;
    - [directed]: two in-process shards behind a {!Live_net.Director},
      driven over the wire, rebalancing the session after every step;
      every UPDATE is a two-phase commit;
    - [with_txn]: the reference edit-transaction semantics — a promoted
      transaction is exactly one plain UPDATE, a rolled-back one is
      exactly nothing;
    - [with_rollout]: real transactions through {!Live_host.Rollout};
      non-strict during a canary window whose decision is rollback,
      then byte-equal again from the resolving event (checkpoint +
      journal replay ≡ never rolled out).

    {v
    name           layer stack
    machine        with_txn (Machine, own hit-testing)      the reference
    session        with_txn (plain Session)                 substitution engine
    compiled       with_txn (plain Session)                 compiled engine
    cached         with_txn (plain Session, render cache)
    host           with_txn (hosted, Scheduler)
    host-incr      with_txn (hosted, Scheduler, render cache, Cross_check)
    host-txn       with_rollout (hosted, Scheduler, render cache, Cross_check)
    host-net       with_txn (recycled (hosted, Scheduler))
    host-director  with_txn (directed, 2 shards)
    restart        with_txn (Restart_runtime)
    v}

    [Cross_check] typechecks every UPDATE with both the scratch and
    the incremental checker; a verdict disagreement rejects the
    broadcast and shows up as a status divergence.  The restart
    baseline is compared strictly until its first UPDATE or queue
    fault (after which its semantics intentionally differ) and
    invariant-checked throughout.  [fuzz --configs machine,NAME]
    isolates one layer stack against the reference.

    After every event the oracle compares, per configuration: the
    step status, the store, the page stack, the display box tree, and
    the painted pixels — and reports the {e first} divergent step. *)

type divergence = {
  step : int;  (** event index; [-1] = divergence at boot *)
  event : Ctrace.event option;  (** [None] at boot *)
  config : string;  (** the configuration that disagrees *)
  field : string;
      (** ["status"], ["store"], ["stack"], ["display"], ["pixels"],
          ["invariant"], or ["broken-update"] *)
  expected : string;  (** the reference configuration's observation *)
  actual : string;
}

type outcome =
  | Agreed  (** every configuration agreed at every step *)
  | Diverged of divergence
  | Boot_failed of string
      (** the trace's boot program does not compile or boot *)

type sabotage =
  | Cache_no_flush
      (** deliberately keep stale render-cache entries across UPDATE
          (see {!Live_core.Render_cache.set_sabotage_no_flush}) — used
          to prove the oracle catches a broken cache *)

val all_configs : string list
(** Every configuration name, in the table's order. *)

val run :
  ?width:int ->
  ?configs:string list ->
  ?sabotage:sabotage ->
  Ctrace.t ->
  outcome
(** Replay the trace through the named configurations (default: all).
    The first named configuration is the comparison reference;
    ["machine"] leads the default list.  The sabotage reaches every
    configuration whose session runs a render cache.
    @raise Invalid_argument naming a configuration not in
    {!all_configs}, before anything boots. *)

val pp_divergence : Format.formatter -> divergence -> unit
(** The pretty-printed delta: step, event, configuration, field, and
    a focused diff of the two observations. *)
