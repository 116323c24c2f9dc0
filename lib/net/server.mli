(** The networked host: a single-threaded, [select]-based Unix-domain
    socket server wrapping a {!Live_host.Registry} fleet and its
    {!Live_host.Scheduler} (DESIGN.md §12.2).

    One {!step} is one cycle of the liveness loop over the wire:
    accept new connections, read and decode every complete frame,
    route [Event]s into the per-session {!Live_host.Backpressure}
    queues, drain the scheduler, and answer every served session with
    a damage-masked [Delta] — only the rows whose text changed since
    the last frame this connection saw.  An [Event] whose session's
    frame came out byte-identical still gets an {e empty} [Delta]: the
    acknowledgement the lockstep load client paces itself by.

    Deltas leave first dirtied, first sent: a view is queued when its
    first [Event] of the step (or a fleet UPDATE) dirties it, so the
    Events of sessions 0, 1 and 2 sent in that order are answered 0, 1,
    2.

    Detach/resume: [Detach] drains the session's still-queued events,
    captures a canonical {!Snapshot} (pending events included), kills
    the session and returns the text as [Detached]; [Resume] restores
    the snapshot — UPDATE-ing it to the host's current program first
    if the snapshot carried older code — adopts it into the fleet
    under a fresh id ({!Live_host.Registry.adopt}) and re-offers the
    pending events through the ordinary ingress path.  The id travels
    back in the [Attach] frame.

    A backpressure-rejected event answers [Error] code 2 whose [msg]
    {e starts with the decimal session id} (then a space), so a client
    multiplexing sessions can attribute the rejection.  Protocol
    violations (garbage bytes, a host-tagged frame from a client, a
    [Hello] with no sessions) answer [Error] code 1 and close the
    connection after the write drains. *)

type t

type stats = {
  accepted : int;  (** connections ever accepted *)
  connections : int;  (** currently open *)
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  deltas_sent : int;
  delta_rows_sent : int;  (** dirty rows actually shipped *)
  full_rows : int;  (** rows full-frame repaints would have shipped *)
  detaches : int;
  resumes : int;
  corrupt : int;  (** connections dropped for protocol violations *)
}

val create :
  ?config:Live_host.Registry.config ->
  ?batch:int ->
  socket:string ->
  Live_core.Program.t ->
  t
(** Bind and listen on the Unix-domain socket at [socket] (an existing
    file there is unlinked first), over a fresh fleet running
    [program].  [config] is the registry config (default
    {!Live_host.Registry.default_config}); [batch] the scheduler's
    per-session batch bound.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val registry : t -> Live_host.Registry.t
val scheduler : t -> Live_host.Scheduler.t

val step : ?timeout:float -> t -> bool
(** One server cycle; [timeout] (default 0.05s) bounds the [select]
    wait when nothing is ready.  Returns whether any I/O or event work
    happened — a pure-timeout step returns [false].  Apart from the
    I/O, a step costs what its work costs: the scheduler ticks only
    sessions with pending input and Deltas go only to dirtied views,
    so serving one tap does not walk the shard's other sessions.
    @raise Failure if the scheduler cannot drain the pending events
    (an internal error: some session's input would wait forever). *)

val run : until:(unit -> bool) -> t -> unit
(** {!step} until [until ()] — the accept loop of a standalone host
    process. *)

val mark_all_dirty : t -> unit
(** Force the next {!step} to re-diff and [Delta] every attached
    session — called after an out-of-band fleet mutation the ingress
    path didn't see (a {!Live_host.Broadcast.update} driven from the
    host side).  O(attached views). *)

val stats : t -> stats

val stop : t -> unit
(** Close every connection and the listener, and unlink the socket
    path.  Idempotent. *)
