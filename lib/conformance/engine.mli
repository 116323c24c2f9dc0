(** The fuzzing engine: seeded trace generation and the campaign loop
    that drives the differential oracle and the shrinker.

    Everything is a pure function of the seed: [gen_trace ~seed] is
    deterministic (it uses {!Live_core.Prng}, never the stdlib [Random]), and
    campaign iteration [k] of master seed [s] uses the derived seed
    {!Live_core.Prng.derive}[ s k] — so any failure reproduces from one line:
    [fuzz --replay-seed N]. *)

val gen_trace : ?n_events:int -> ?mutants:int -> seed:int -> unit -> Ctrace.t
(** A random trace over {!Mutate.base_pool} plus up to [mutants]
    (default 2) seeded fixup-aware mutants: taps, backs, updates
    (including storms of consecutive updates), broken edits, forced
    renders, cache flushes, and queue faults.  [n_events] bounds the
    script length (default 24; at least one event is generated). *)

type failure = {
  iter : int;  (** campaign iteration that failed *)
  trace_seed : int;  (** the derived one-line reproduction seed *)
  trace : Ctrace.t;  (** the original failing trace *)
  divergence : Oracle.divergence;
  shrunk : Ctrace.t;  (** delta-debugged witness *)
  shrunk_divergence : Oracle.divergence;
}

type report = {
  iters_run : int;
  events_run : int;  (** total events stepped, for throughput stats *)
  failure : failure option;  (** [None]: every trace agreed *)
}

val run_campaign :
  ?iters:int ->
  ?n_events:int ->
  ?width:int ->
  ?configs:string list ->
  ?sabotage:Oracle.sabotage ->
  ?shrink_budget:int ->
  ?on_progress:(int -> unit) ->
  seed:int ->
  unit ->
  report
(** Generate-and-check [iters] traces (default 100), stopping at the
    first divergence, which is shrunk before being reported. *)

val replay_seed :
  ?n_events:int ->
  ?width:int ->
  ?configs:string list ->
  ?sabotage:Oracle.sabotage ->
  int ->
  Ctrace.t * Oracle.outcome
(** Regenerate the trace of a derived seed and run the oracle once —
    the one-line reproduction path. *)
