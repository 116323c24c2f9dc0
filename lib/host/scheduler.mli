(** The batching scheduler: one tick drains bounded batches of pending
    user events across the fleet and repaints each served session
    {e once}, so the per-frame cost is amortised over the batch.

    Semantics are untouched: every drained event runs the ordinary
    TAP / BACK transition followed by the full stabilisation loop
    (dispatch, RENDER) — what is coalesced is only the {e painting} of
    frames, which is outside the Fig. 9 relation.  A fleet of one
    driven one event per tick is therefore observably identical to a
    plain session, which the conformance oracle's ["host"]
    configuration checks byte-for-byte.

    Policies:
    - {!Round_robin}: fair — the starting point of the spawn ring
      rotates every tick;
    - {!Hottest_first}: serve the longest ingress queue first (drains
      backlog fastest; can starve cold sessions under overload, which
      is what the bounded queues are for). *)

type policy = Round_robin | Hottest_first

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

type t

val create :
  ?policy:policy ->
  ?batch:int ->
  Registry.t ->
  t
(** [batch] (default 8, clamped to >= 1) bounds the events drained per
    session per tick.  Each tick is timed into the registry's
    metrics. *)

type tick_report = {
  processed : int;  (** events drained and applied this tick *)
  sessions_served : int;  (** sessions that processed >= 1 event *)
  repaints : int;  (** one per served session *)
  coalesced : int;  (** processed - repaints: redundant frames saved *)
  taps_hit : int;
  taps_missed : int;
  errors : (Registry.id * Live_core.Machine.error) list;
      (** sessions whose event application failed; the event is
          consumed, the session keeps running *)
  latency_ns : float;
}

val tick : t -> tick_report
(** One scheduling round under the configured policy: each session
    with pending input ({!Registry.ready}), in service order, drains up
    to [batch] events in FIFO order and paints one coalesced frame.  A
    tick costs O(sessions with pending input), not O(sessions): a
    session with nothing queued is never visited, and a tick with no
    pending events does no per-session work (it is still counted and
    timed).  This is the only code that ticks a registry. *)

val drain : ?max_ticks:int -> t -> (int, string) result
(** Tick until no events are pending; returns the total processed.
    [Error] if [max_ticks] (default 1_000_000) rounds were not
    enough. *)
