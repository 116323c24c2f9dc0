(** The shard director: one socket in front of N shard host processes
    (DESIGN.md §13).

    Clients speak the ordinary {!Wire} protocol to the director as if
    it were a single {!Server}; the director owns the global session
    id space and proxies each session's traffic to the shard that
    hosts it.  Three invariants define the abstraction:

    - {b Placement} is deterministic: session [g] lives on the shard
      with the highest rendezvous score
      [Prng.derive (hash endpoint) g], so any observer can recompute
      the map from the endpoint list alone — there is no placement
      table to replicate or lose.  Global ids are dense and assigned
      in spawn order, exactly like a single-process registry, so a
      directed fleet digests identically to an undirected one.
    - {b UPDATE is atomic} fleet-wide: a client [Update] runs two-phase
      commit over the shards' edit transactions.  [Prepare]
      ({!Live_host.Broadcast.prepare}) goes to every shard at once; if
      every shard votes Ack, [Commit] ({!Live_host.Broadcast.commit})
      goes to every shard at once, else [Abort]
      ({!Live_host.Broadcast.abort}) goes to those that prepared.  The shard processes run each phase in parallel.  The
      director reads no client frame while the transaction is in
      flight, so no client ever observes a mixed-epoch fleet, and a
      connection's frames after its [Update] meet the new program.
    - {b Rebalance preserves state byte-for-byte}: sessions migrate
      from the fullest to the emptiest shard through the canonical
      detach → snapshot → resume path, keeping their global ids; the
      fleet digest (MD5 over every session's canonical observation in
      id order) is recomputed before and after, and a quiescent-fleet
      mismatch fails the command.

    A dead or protocol-violating shard raises {!Fatal}: the director
    refuses to improvise around a half-alive fleet. *)

exception Fatal of string

type t

type stats = {
  shards : int;
  sessions : int;  (** sessions currently resident, across all shards *)
  per_shard : (string * int) list;  (** endpoint, resident sessions *)
  accepted : int;
  frames_in : int;  (** client frames routed *)
  frames_out : int;  (** frames sent, to clients and shards *)
  updates_committed : int;
  updates_rejected : int;  (** two-phase aborts (all-or-nothing held) *)
  rebalances : int;
  sessions_moved : int;
  digest_checks : int;  (** strict before/after digest comparisons *)
  digest_failures : int;
  corrupt : int;
  txns : int;  (** two-phase UPDATEs timed, committed or refused *)
  txn_p50_ms : float;
      (** a 2PC's time from reading the client's [Update] to staging
          its reply, on the monotonic clock (log-bucket quantile; [0.]
          before the first) *)
  txn_p99_ms : float;
}

val create :
  ?pump:(unit -> unit) ->
  ?connect_timeout:float ->
  socket:string ->
  shards:string list ->
  unit ->
  t
(** Connect to every shard endpoint (Unix-socket paths; retried until
    [connect_timeout], default 10 s, so shards may still be booting)
    and listen on [socket].  [pump] is called while the director waits
    on a shard reply — in-process harnesses pass a closure stepping
    the shard servers; standalone processes leave it out.
    @raise Unix.Unix_error if a shard never comes up. *)

val step : ?timeout:float -> t -> bool
(** One select round: accept clients, route frames, run any control
    exchange to completion.  [true] if any work was done. *)

val run : until:(unit -> bool) -> t -> unit
val stats : t -> stats

val fleet_digest : t -> string
(** MD5 over every resident session's canonical observation in global
    id order — byte-identical to {!Live_host.Registry.digest} of a
    single-process fleet that served the same per-session traffic. *)

val stop : t -> unit
