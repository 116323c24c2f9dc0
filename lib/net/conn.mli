(** One nonblocking wire peer: a Unix-domain stream socket with its
    input buffer, its staged output and the write in flight.  Every
    socket call in [lib/net] goes through here, under one policy: an
    [EINTR] is retried (a [select] with the time it has left), an
    [EAGAIN] means "no more for now", and anything else — or a peer
    that hangs up — raises {!Failed}.  Each caller keeps its own
    failure policy on top: {!Server} drops the connection, {!Director}
    turns a dead shard into {!Director.Fatal}, {!Client.run} returns
    [Error].

    Output is staged: {!send} encodes into a staging buffer (through a
    per-connection {!Wire.encode_into} scratch, no per-frame
    allocation) and {!flush} promotes everything staged since the last
    write to a single [write].  This is a connection, not an event
    loop: callers own their loop and its phase order, and wait with
    {!select} or, blocking, with {!await}. *)

exception Failed of string
(** The peer hung up, a socket call failed, a stream from a host was
    corrupt, or {!await} saw no byte move for 60 s; the message says
    which. *)

type listener

val listen : string -> listener
(** Bind and listen on the Unix-domain socket at this path (a file
    already there is unlinked first).
    @raise Unix.Unix_error if the socket cannot be bound. *)

val close_listener : listener -> unit
(** Close the listener and unlink its path. *)

type t

val accept : listener -> t list
(** Every connection waiting on the listener, until [EAGAIN]. *)

val connect : ?timeout:float -> string -> t
(** Connect to the socket at this path, retrying every 50 ms for up to
    [timeout] seconds (default 0: one attempt) while the peer boots.
    @raise Unix.Unix_error once it gives up. *)

val fd : t -> Unix.file_descr
(** The socket, to key tables by and to match {!select}'s result. *)

val close : t -> unit

(** {2 Input} *)

val read : t -> unit
(** Append everything the socket holds now to the input buffer.
    @raise Failed at end of stream or on a read error. *)

val buffered : t -> bool
(** Whether any input is buffered. *)

val frames :
  ?raw:(string -> Wire.raw -> bool) -> t -> (Wire.frame -> bool) -> string option
(** One decode pass over the buffered input.  Each complete frame goes
    first to [raw], located by {!Wire.peek} but not decoded, which
    returns whether it took the frame; otherwise it is decoded and
    handed to the handler, which returns whether to go on.  The pass
    also ends at an incomplete frame and once the connection is
    {!closing}; the consumed bytes are dropped.  Returns the decoder's
    message if the pass stopped at a corrupt frame. *)

val next : t -> Wire.host_frame option
(** The next buffered frame from a host, if a whole one has arrived.
    @raise Failed on a corrupt or client-tagged frame. *)

(** {2 Output} *)

val send : t -> Wire.frame -> unit
(** Stage a frame; it goes out on the next {!flush}. *)

val relay : t -> string -> Wire.raw -> session:int -> unit
(** Stage a peeked frame's original bytes with its session id patched
    ({!Wire.relay_rewrite}) — the director's zero-copy relay. *)

val flush : t -> unit
(** Write as much staged output as the socket takes now.
    @raise Failed if the peer is gone. *)

val close_after_flush : t -> unit
(** Stop reading; the connection is done once its output has drained. *)

val closing : t -> bool

val flush_live : t -> bool
(** {!flush}; [false] once the connection is done — its peer is gone,
    or it is closing and everything staged has gone out. *)

val bytes_in : t -> int
val bytes_out : t -> int

(** {2 Waiting} *)

val select : ?listener:listener -> t list -> float -> bool * Unix.file_descr list
(** Wait up to the timeout (seconds) until the listener has a
    connection waiting, one of the connections that is not {!closing}
    is readable, or one with staged output is writable.  Returns
    whether the listener is ready, and the readable sockets. *)

val poll : ?pump:(unit -> unit) -> t list -> float -> bool
(** Call [pump] (the harness stepping in-process peers), {!select} for
    up to the timeout, and {!read} every readable connection.  Returns
    whether any input arrived. *)

val await : ?pump:(unit -> unit) -> t list -> (unit -> 'a option) -> 'a
(** Call the check, then {!poll} (the first time without waiting,
    after that for up to 1 ms), until the check answers.
    The deadline is 60 s on a monotonic clock, counted from the last
    byte that moved on any of the connections.
    @raise Failed if a connection dies or the deadline passes. *)

val push : ?pump:(unit -> unit) -> t -> unit
(** Block until everything staged is on the wire. *)

val rpc : ?pump:(unit -> unit) -> t -> Wire.frame -> (unit -> 'a option) -> 'a
(** Send a request and wait for its reply: {!send}, {!push}, then
    {!await} the check (a decode pass recognising the reply). *)
