(** One runner for every wire fleet run (DESIGN.md §14.4): start a
    topology, drive a seeded {!spec} through {!Client.run}, replay the
    same spec on one in-process {!Live_host.Registry}, and check the
    served fleet against that replay.

    The check is by {e slot}, not by session id, so a session detached
    and resumed under a fresh id needs nothing special: each slot's
    [Observe] observation must equal its replay byte for byte, and each
    client frame rebuilt from [Attach] and [Delta]s must equal the
    pixels of that observation.  The topology is invisible to it. *)

type topology =
  | Single  (** one in-process {!Server} *)
  | Directed of int  (** n in-process shards behind an in-process {!Director} *)
  | Spawned of { shards : int; serve : string -> string array }
      (** n shard processes behind an in-process director; [serve
          socket] is the command line of the shard on [socket] *)
  | External of string  (** a server or director already listening here *)

type t
(** A started topology and an admin connection that owns no sessions. *)

val start :
  ?config:Live_host.Registry.config ->
  ?batch:int ->
  topology ->
  Live_core.Program.t ->
  t
(** In-process servers run the program under [config] and [batch] (see
    {!Server.create}); [Spawned] and [External] ignore all three.
    @raise Unix.Unix_error if the endpoint cannot be reached. *)

val socket : t -> string
(** Where clients connect: the server's or the director's socket. *)

val pump : t -> unit -> unit
(** Step every in-process peer once without waiting. *)

val rpc : t -> Wire.client_frame -> Wire.host_frame
(** A request and its reply over the admin connection, pumping.
    @raise Conn.Failed if the endpoint hangs up or does not answer. *)

val registries : t -> Live_host.Registry.t list
(** [Single]'s fleet, or [Directed]'s shard fleets in shard order. *)

val director : t -> Director.t option
(** The in-process director of [Directed] and [Spawned]. *)

val stop : t -> unit
(** Stop every in-process peer; SIGTERM and [waitpid] every shard
    process.  Idempotent. *)

type spec = {
  config : Live_host.Registry.config;
  batch : int;
  program : int -> Live_core.Program.t;  (** version 0 boots *)
  sessions : int;
  conns : int;
  rounds : int;
  window : int;  (** per-slot in-flight events, as {!Client.run} *)
  seed : int;
  draw : Live_core.Prng.t -> Live_host.Registry.uevent;
      (** a slot's next event from its stream [Prng.derive seed slot] *)
  updates : int list;
      (** after the [k]-th of these rounds version [k] goes out as a
          wire [Update]: the server's handler or the director's 2PC *)
  rebalances : int list;  (** rounds after which a director rebalances *)
  moves : int;  (** sessions each rebalance migrates *)
  detach_every : int;  (** as {!Client.run}; 0 = never *)
}
(** Update and rebalance rounds are barriers whatever the window. *)

type outcome = {
  report : Client.report;
  seconds : float;  (** {!Client.run}'s wall time, on the monotonic clock *)
  metrics : Live_host.Host_metrics.snapshot;
      (** the endpoint's [Stats_data], merged across shards *)
}

val run : t -> spec -> (outcome, string) result
(** [Error] on a client failure or a refused update or rebalance. *)

val summary : outcome -> string list
(** The run in a few lines: throughput, latency, damage ratio, detaches. *)

val shadow : spec -> string array
(** Replay the spec on one in-process registry — each round offers
    every slot's event, drains, then applies that round's update — and
    return each slot's canonical observation.
    @raise Failure if the replay itself fails. *)

type verdict = {
  digest : string;
      (** MD5 of the served [Observe] in id order, byte-compatible with
          {!Live_host.Registry.digest} *)
  problems : string list;
      (** [[]] = agreed; else the first five, each naming its slot, and
          how many more *)
}

val check : t -> shadow:string array -> outcome -> verdict
(** Observe the served fleet and compare it with the shadow. *)
