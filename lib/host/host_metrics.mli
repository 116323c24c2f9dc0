(** Fleet-wide counters and latency histograms for the multi-session
    host: events in / dropped / rejected / processed, repaints and
    coalesced re-renders, broadcast updates, and log-bucketed
    histograms of scheduler-tick latency and broadcast fan-out time.

    A {!snapshot} is a typed immutable record (with the p50/p99
    quantiles already computed) and {!to_string} is the text dump the
    load driver prints.  The accounting identity

    {v events_in = processed + dropped + rejected + pending v}

    must hold at every quiescent point; {!accounting_ok} checks it and
    the CI soak job fails on a mismatch. *)

val now : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: every
    duration the host measures is a difference of two [now]s, so a
    wall-clock step cannot bend one. *)

(** {1 Latency histograms} *)

type histogram
(** Log-scale histogram over nanoseconds (32 buckets per decade,
    13 decades — 1 ns to ~10^4 s): O(1)
    recording, quantiles approximated by the bucket's geometric centre
    (good to ~15%, plenty for p50/p99 trend lines). *)

val histogram : unit -> histogram
val record : histogram -> float -> unit
(** [record h ns] — negative values clamp to 0. *)

val hist_count : histogram -> int

val union_histogram : histogram -> histogram -> histogram
(** Bucket-wise sum (fresh histogram; the inputs keep counting).
    Quantile-safe: counts, sums and extrema add exactly, so quantiles
    of the union are as accurate as if one histogram had seen every
    sample. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1], in ns; [0.] on an empty
    histogram.  Clamped to the exact observed min/max. *)

(** {1 Live counters} *)

type t = {
  mutable events_in : int;  (** every event offered to the host *)
  mutable events_processed : int;  (** drained and applied by a tick *)
  mutable events_dropped : int;  (** evicted by drop-oldest / on kill *)
  mutable events_rejected : int;  (** refused: queue full or admission *)
  mutable taps_hit : int;
  mutable taps_missed : int;
  mutable ticks : int;
  mutable repaints : int;  (** one per served session per tick *)
  mutable coalesced_renders : int;  (** batched events minus repaints *)
  mutable updates_applied : int;
  mutable updates_rejected : int;  (** broadcasts refused by typecheck *)
  mutable sessions_spawned : int;
  mutable sessions_killed : int;
  mutable fanout_last_ns : float;  (** duration of the last broadcast *)
  mutable typecheck_last_ns : float;
      (** typecheck phase of the last broadcast (scratch or incremental) *)
  mutable diff_last_ns : float;
      (** program-diff phase of the last broadcast (0 when scratch) *)
  mutable compile_last_ns : float;
      (** compile-priming phase of the last broadcast *)
  mutable dirty_defs_last : int;
      (** semantic dirty-set size of the last diffed broadcast *)
  mutable recheck_defs_last : int;
      (** typecheck recheck-set size of the last diffed broadcast *)
  mutable broadcasts_incremental : int;
      (** broadcasts whose typecheck reused the previous derivation *)
  mutable broadcasts_scratch : int;
      (** broadcasts typechecked from scratch *)
  mutable rollouts_begun : int;  (** staged rollouts opened *)
  mutable rollouts_promoted : int;
  mutable rollouts_rolled_back : int;
  mutable canary_sessions_last : int;
      (** canary cohort size of the last begun rollout *)
  tick_latency : histogram;
  update_fanout : histogram;
  update_typecheck : histogram;
}

val create : unit -> t

val merge : t -> t -> t
(** Exact sum of two instances as a fresh instance: counters add,
    histograms union, [fanout_last_ns] keeps the non-zero side.  The
    director folds its shards' exported instances into fleet totals
    with this ({!merge_exported}); addition being exact, the
    accounting identity survives the merge. *)

val merge_all : t list -> t
(** [merge] folded over a list (empty list = zeros). *)

(** {1 Snapshots} *)

type snapshot = {
  sessions : int;
  s_events_in : int;
  s_events_processed : int;
  s_events_dropped : int;
  s_events_rejected : int;
  s_pending : int;
  s_taps_hit : int;
  s_taps_missed : int;
  s_ticks : int;
  s_repaints : int;
  s_coalesced_renders : int;
  s_updates_applied : int;
  s_updates_rejected : int;
  s_sessions_spawned : int;
  s_sessions_killed : int;
  cache_hits : int;  (** aggregated render-cache hits ([0] when off) *)
  cache_misses : int;
  cache_hit_rate : float;  (** [nan] when the cache is off / unused *)
  tick_p50_ns : float;
  tick_p99_ns : float;
  fanout_p50_ns : float;
  fanout_p99_ns : float;
  fanout_last_ns : float;
  s_typecheck_last_ns : float;
  s_diff_last_ns : float;
  s_compile_last_ns : float;
  s_typecheck_p50_ns : float;
  s_typecheck_p99_ns : float;
  s_dirty_defs_last : int;
  s_recheck_defs_last : int;
  s_broadcasts_incremental : int;
  s_broadcasts_scratch : int;
  s_rollouts_begun : int;
  s_rollouts_promoted : int;
  s_rollouts_rolled_back : int;
  s_canary_sessions_last : int;
}

val snapshot :
  t -> sessions:int -> pending:int -> cache:(int * int) option -> snapshot
(** Freeze the counters; [cache] is the fleet-aggregated render-cache
    (hits, misses), [None] when no session runs the cache. *)

val accounting_ok : snapshot -> bool
(** The dropped-event accounting identity above. *)

val to_string : snapshot -> string
(** The multi-line text dump (host_bench, the CI soak job). *)

(** {1 Machine-readable export}

    Cross-process aggregation (the shard director's [stats]): each
    shard {!export}s its raw counters and histogram buckets — {e not}
    a {!snapshot}, whose quantiles could not be recombined — and the
    director {!import}s and {!merge_exported}s them into one fleet
    snapshot whose quantiles are computed over the exact union. *)

type exported = {
  x_metrics : t;
  x_sessions : int;
  x_pending : int;
  x_cache : (int * int) option;
}

val export :
  t -> sessions:int -> pending:int -> cache:(int * int) option -> string
(** Line-based text of the raw counters, extrema and non-zero
    histogram buckets; floats as C99 hex literals so every bit pattern
    round-trips. *)

val import : string -> (exported, string) result
(** Parse {!export} text.  Total: malformed input is [Error reason].
    [export (import (export m))] is byte-identical. *)

val merge_exported : exported list -> snapshot
(** Exact fleet aggregate: {!merge_all} over the metrics, sessions /
    pending / cache totals summed, quantiles recomputed from the
    unioned histograms. *)
