(** The session fleet: N concurrent {!Live_runtime.Session}s sharing
    one program.

    The registry owns spawn / kill / lookup, the per-session bounded
    ingress queue ({!Backpressure}), the set of sessions whose queue is
    non-empty ({!ready}), an optional fleet-wide admission limit on
    total pending events, and the {!Host_metrics} counters every
    component reports into.  Sessions keep their own store and
    page stack (per-user model state); the {e code} is shared and only
    changes when a {!Broadcast} transaction commits, applying one edit
    across the whole fleet.  The registry keeps the code epochs that
    transaction opens and installs; {!Broadcast} migrates the
    sessions. *)

type id = int
(** Dense, never reused within a registry. *)

(** A user event addressed to one session, not yet applied — the
    host-level counterpart of the paper's TAP / BACK transitions. *)
type uevent = Tap of { x : int; y : int } | Back

val pp_uevent : Format.formatter -> uevent -> unit

type config = {
  width : int;  (** display width of every session *)
  fuel : int option;  (** evaluator fuel ([None] = default) *)
  cache : bool;  (** the end-to-end incremental render pipeline *)
  evaluator : Live_core.Machine.evaluator;
      (** expression engine for every session (default [Compiled]:
          one shared compilation per program fleet-wide) *)
  queue_capacity : int;  (** per-session ingress bound *)
  queue_policy : Backpressure.policy;
  admission_limit : int option;
      (** fleet-wide cap on total pending events; offers beyond it are
          rejected whatever the per-session policy says *)
}

val default_config : config
(** width 48, default fuel, no caches, capacity 64, drop-oldest, no
    admission limit. *)

type t

val create : ?config:config -> Live_core.Program.t -> t
(** An empty fleet over the shared program; {!spawn} boots sessions. *)

val spawn : t -> (id, Live_core.Machine.error) result
(** Boot one session on the current shared program to its first stable
    state, rendering against the current epoch's tables. *)

val spawn_many : t -> int -> (id list, Live_core.Machine.error) result
(** Spawn [n] sessions; stops at the first boot failure (already
    spawned sessions stay). *)

val adopt : t -> Live_runtime.Session.t -> id
(** Enroll an existing stable session (a snapshot the networked host
    just resumed) under a fresh id, pinned to the current epoch (so
    its render cache moves onto the epoch's tables).  The
    caller guarantees the session's code {e is} the registry's shared
    program (physically — {!check_epochs} compares by identity); the
    server UPDATEs a resumed session whose snapshot carried older code
    before adopting it.
    @raise Invalid_argument while an edit transaction is open. *)

val kill : t -> id -> bool
(** Remove a session; its pending ingress events are accounted as
    dropped.  [false] if the id is unknown. *)

val session : t -> id -> Live_runtime.Session.t option
val ids : t -> id list
(** Every live id in spawn order, which is ascending — the scheduler's
    round-robin ring.  O(sessions): it builds the list. *)

val size : t -> int

val id_at : t -> int -> id
(** [id_at t k] is the [k]-th id of {!ids} (from 0), in O(1).
    @raise Invalid_argument unless [0 <= k < size t]. *)

val program : t -> Live_core.Program.t

val program_checked : t -> bool
(** Whether the current shared program is known to satisfy [C |- C].
    False for the boot program (sessions boot without the UPDATE
    premise being discharged); true once a committed transaction's
    typecheck accepted an edit.  {!Broadcast.prepare}'s incremental
    typecheck requires it — derivation reuse is only sound from a
    known-good baseline — and falls back to a scratch check when
    false. *)

val config : t -> config
val metrics : t -> Host_metrics.t

(** {1 Ingress} *)

val offer : t -> id -> uevent -> Backpressure.outcome
(** Enqueue a user event for one session, subject to the per-session
    bound and the fleet admission limit; every outcome is counted in
    {!metrics}.  An unknown id rejects. *)

val pending : t -> id -> int
val total_pending : t -> int
val take : t -> id -> uevent option
(** Dequeue the session's oldest pending event (the scheduler's
    draining primitive). *)

val ready : t -> id list
(** The ids with pending input, ascending (so in spawn order) — what a
    {!Scheduler.tick} serves.  Always equal to
    [List.filter (fun id -> pending t id > 0) (ids t)], but costs
    O(r log r), r being the ids that had pending input at any point
    since the previous call, not O(sessions). *)

(** {1 Code epochs (edit transactions)}

    A code epoch is a value the registry owns: a program, its
    compilation (under [Compiled]) and the render-cache subtree tables
    every session on it shares (with [cache]).  In steady state the fleet has one
    live epoch: the installed program.  {!open_rollout} registers an
    edit transaction's target as a second live epoch; while it is
    open, each session is pinned to exactly one of the two, and
    {!Broadcast.prepare} refuses to open another.  {!promote_rollout}
    / {!rollback_rollout} close the window — migrating session state
    is {!Broadcast}'s job (and checkpoint rewinds {!Rollout}'s); the
    registry tracks which epochs are live and who is pinned where, and
    pinning a session ({!spawn}, {!adopt}, {!pin_session}, closing the
    window) points its render cache at the epoch's tables. *)

val current_epoch : t -> int
(** The installed epoch's id (0 at creation; bumps on every committed
    transaction). *)

val rollout_open : t -> bool

val live_epochs : t -> (int * Live_core.Program.t) list
(** Newest first; one entry in steady state, two while a rollout is
    open. *)

val session_epoch : t -> id -> int option
(** The epoch a session is pinned to; [None] for an unknown id. *)

val pin_session : t -> id -> int -> unit
(** Re-pin one session ({!Broadcast.migrate}, a {!Rollout} rewind) and
    point its render cache at the epoch's tables.  Unknown ids are
    ignored.
    @raise Invalid_argument if the epoch is not live. *)

val open_rollout :
  ?diff:Live_core.Program_diff.t -> t -> Live_core.Program.t -> int
(** Register [target] as a second live epoch and return its id: it is
    compiled, and its subtree tables are built — with [diff] (from the
    installed program to [target]), once, from the installed epoch's:
    only the dirty definitions are recompiled and only their entries
    dropped.  The installed program and every pin are untouched.
    @raise Invalid_argument if a rollout is already open. *)

val promote_rollout : t -> unit
(** Install the open rollout's target fleet-wide and retire the base
    epoch — the only way a program is installed.  Marks the program
    checked ({!program_checked}); every session is pinned to the new
    epoch (the caller has migrated their states).
    @raise Invalid_argument if none is open. *)

val rollback_rollout : t -> unit
(** Retire the open rollout's target epoch; the base stays installed
    and every session is pinned back to it (the caller has rewound the
    canaries).  @raise Invalid_argument if none is open. *)

val check_epochs : t -> (id * string) list
(** Epoch consistency: every session's pin names a live epoch and its
    state's code is physically that epoch's program.  Empty list =
    no session ever crosses epochs unaccounted. *)

(** {1 Invariants} *)

val check_invariants : t -> (id * string) list
(** Every session's state must type (Fig. 11), be stable, and show a
    valid display; each violation is reported as [(id, message)].
    Empty list = healthy fleet. *)

val snapshot : t -> Host_metrics.snapshot
(** Freeze the metrics, aggregating render-cache hits/misses across
    the fleet and the current total pending count. *)

val cache_totals : t -> (int * int) option
(** Fleet-aggregated render-cache (hits, misses); [None] when no
    session runs the cache. *)

val export_metrics : t -> string
(** {!Host_metrics.export} of this registry's raw counters with the
    current sessions / pending / cache totals — what a shard answers
    to the director's [Stats_data] frame. *)

val observe_session : Live_runtime.Session.t -> string
(** One session's canonical observation (sorted store, page stack,
    painted pixels) — the unit the fleet {!digest} hashes. *)

val digest : t -> string
(** MD5 over every session's observation in id order: the fleet's
    observable state as one hex string.  Fleets replaying the same
    seeded per-session event sequences digest identically whatever the
    cross-session interleaving, so either {!Scheduler.policy} and
    either evaluator land on the same digest. *)

val digest_cohort : t -> id list -> string
(** {!digest} restricted to a cohort (always hashed in id order,
    whatever order the list is in) — the canary-vs-shadow comparison
    unit during staged rollouts. *)

val digest_of : (id * string) list -> string
(** The digest format itself: MD5 over ["== session N ==\n"] followed
    by that session's {!observe_session} text, for each pair in list
    order.  {!digest} is [digest_of] over the fleet in id order; a
    director or a wire client that gathered the same observations
    digests them with this, byte-compatibly. *)

(** {1 Cohort accounting}

    Per-session ingress ledgers aggregated over a cohort.  The
    accounting identity [ca_in = ca_taken + ca_dropped + ca_rejected +
    ca_pending] holds per cohort and summed — events never migrate
    between cohorts, so a staged rollout cannot launder a lost event
    through the fleet totals. *)

type cohort_accounting = {
  ca_in : int;  (** offers addressed to cohort members (any outcome) *)
  ca_taken : int;  (** events the scheduler dequeued *)
  ca_dropped : int;  (** drop-oldest victims *)
  ca_rejected : int;  (** queue-full and admission rejections *)
  ca_pending : int;  (** still queued *)
}

val cohort_accounting : t -> id list -> cohort_accounting
(** Duplicate ids in the cohort are counted once; unknown ids
    contribute nothing (killed sessions' ledgers die with them). *)

val cohort_accounting_ok : cohort_accounting -> bool
