(** Domain-parallel session execution: a fixed pool of worker domains
    that partitions the fleet's runnable sessions into shards and runs
    {!Scheduler.serve}-style batches concurrently, one session per
    domain at a time.

    {2 Why this is sound}

    The paper's type-and-effect discipline makes fleet ticks
    embarrassingly parallel by construction: each session owns its
    store, page stack, render caches and framebuffer; sessions share
    only the {e immutable} program; and render code cannot write the
    model (the render effect excludes writes), so serving one session
    can never observe another.  The only cross-session state is the
    registry's total-pending counter (an [Atomic]) and the metrics,
    which are strictly per-domain instances merged into fleet totals
    ({!Host_metrics.merge}).

    {2 Determinism}

    For any seeded trace, the parallel host's per-session final
    stores, stacks and framebuffers are byte-identical to the
    sequential {!Scheduler}'s, for every [jobs] — event order within a
    session is preserved (its FIFO ingress queue is drained by exactly
    one domain per tick, with the same batch bound), and only the
    cross-session interleaving varies, which no session can observe.
    The ["host-parallel"] oracle configuration
    ({!Live_conformance.Oracle}), the equivalence properties in
    [test/test_parallel.ml] and [host_bench --digest] all enforce this
    byte-for-byte ({!Registry.digest}).

    {2 Scheduling}

    Each tick rebalances: runnable sessions (pending > 0) are sorted
    hottest-first by this tick's work ([min pending batch]) and dealt
    greedily to the least-loaded shard — a deterministic
    longest-processing-time partition, the work-stealing rebalance
    keyed on queue depth that {!Scheduler.Hottest_first} generalises
    across domains.  Sessions therefore migrate between domains only
    across the tick barrier, never during a tick (session-affinity
    pinning).

    {2 The broadcast barrier}

    {!update} is a stop-the-world transaction in the spirit of edit
    transactions: it takes the same world lock every tick holds, so it
    blocks until in-flight shards quiesce, applies the
    typecheck-once {!Broadcast.update} against the whole quiesced
    fleet, and only then lets workers resume.  A broadcast can never
    observe — or be observed by — a half-ticked fleet;
    {!barrier_violations} counts (and the tests assert zero) any
    overlap ever detected between serving and updating. *)

type t

val create :
  ?jobs:int -> ?batch:int -> Registry.t -> t
(** A pool of [jobs] shards over the registry: the calling domain
    coordinates and serves shard 0; [jobs - 1] worker domains are
    spawned for the rest (none for [jobs = 1], which is the sequential
    degenerate case running the identical code path).  [jobs] defaults
    to {!Domain.recommended_domain_count} and is clamped to [1, 64];
    [batch] (default 8) bounds events per session per tick exactly as
    the sequential scheduler does.  Call {!shutdown} (or use
    {!with_pool}) when done — worker domains are real OS threads. *)

val with_pool :
  ?jobs:int -> ?batch:int -> Registry.t -> (t -> 'a) -> 'a
(** [create], run the function, always [shutdown]. *)

val jobs : t -> int
val registry : t -> Registry.t

val tick : t -> Scheduler.tick_report
(** One parallel scheduling round: rebalance shards, serve them
    concurrently, barrier, account.  Per-session semantics are those
    of {!Scheduler.serve}; the report's [errors] are ordered by shard,
    not chronologically across sessions.  Must be called from the
    domain that owns the pool (offers and ticks are coordinator-side;
    only {!update} may come from another domain). *)

val drain : ?max_ticks:int -> t -> (int, string) result
(** Tick until no events are pending; total processed. *)

val update :
  ?typecheck:Broadcast.typecheck_mode ->
  t ->
  Live_core.Program.t ->
  (Broadcast.report, Live_core.Machine.error) result
(** The fleet-wide UPDATE as a stop-the-world transaction: waits for
    any in-flight tick to quiesce, then runs {!Broadcast.update}
    (typechecked once — incrementally by default, see
    {!Broadcast.typecheck_mode} — applied to every session,
    all-or-nothing on rejection).  Safe to call from any domain — this
    is how a live programming environment lands an edit against a
    running fleet. *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run [f] under the same stop-the-world discipline as {!update}:
    the world lock is held (no tick can start), an in-flight tick
    would be counted as a barrier violation, and the updating flag is
    set for the duration.  This is how {!Rollout} stages (begin /
    canary / promote / rollback) run against a parallel fleet — each
    stage mutates fleet-shared structures (epoch table, session pins,
    checkpoints) that must not race a serving worker. *)

val snapshot : t -> Host_metrics.snapshot
(** Fleet totals: the registry's ingress-side instance merged with
    every per-domain instance ({!Registry.snapshot_merged}).  The
    accounting identity [in = processed + dropped + rejected +
    pending] holds exactly at every quiescent point; tick latency
    quantiles are over per-shard service times. *)

val domain_metrics : t -> Host_metrics.t array
(** The per-domain instances (index 0 = the coordinator's shard) —
    exposed for tests and the load driver's per-domain breakdown. *)

val barrier_violations : t -> int
(** Times a worker observed a broadcast in flight while serving, or a
    broadcast observed an unquiesced tick.  Always 0 unless the world
    lock is broken; the barrier stress test asserts this. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  The registry
    remains usable (e.g. by a sequential {!Scheduler}). *)
