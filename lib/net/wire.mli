(** The binary wire protocol between a client and the networked host
    (DESIGN.md §12).

    Framing: every frame is a 4-byte big-endian length prefix followed
    by a body of exactly that many bytes; the body starts with a
    protocol {!version} byte and a tag byte, then the tag's payload.
    Integers are unsigned 32-bit big-endian; strings and blobs are a
    u32 length followed by raw bytes.  The encoding is {e canonical}:
    a frame has exactly one wire image, so [decode (encode f) = f] and
    re-encoding a decoded frame is byte-identical — the round-trip
    property [test/test_net.ml] checks by qcheck and pins with a
    golden file.

    {!decode} never raises: truncated input is {!Need_more} (feed more
    bytes and retry), and anything malformed — a bad version byte, an
    unknown tag, an over-long length, trailing payload bytes — is
    {!Corrupt} with a reason, which the server answers with an
    [Error] frame before closing the connection. *)

val version : int
(** Protocol version byte, bumped on any wire-visible change. *)

val max_frame : int
(** Upper bound on a frame body's length; a length prefix beyond it is
    {!Corrupt} (a garbage prefix must not trigger a giant allocation). *)

(** A user event on the wire — the client-side counterpart of
    {!Live_host.Registry.uevent}: a tap by screen coordinates (the
    paper's TAP, which pushes/execs through the handler it hits) or
    BACK (pop). *)
type event = Ev_tap of { x : int; y : int } | Ev_back

(** Client → host. *)
type client_frame =
  | Hello of { client : string; sessions : int }
      (** open the conversation; the host spawns [sessions] fresh
          sessions (at least 1) and answers each with [Attach] *)
  | Event of { session : int; ev : event }
      (** one user event for one of this connection's sessions *)
  | Detach of { session : int }
      (** stop serving the session and send back its canonical
          {!Snapshot} as [Detached]; the session leaves the fleet *)
  | Resume of { snapshot : string }
      (** re-enter a detached session from its snapshot text (same or
          different host process); answered with [Attach] *)
  | Stats  (** ask for a [Metrics] frame *)
  | Bye
      (** orderly goodbye; the connection closes but its sessions live
          on in the fleet, unattached — only [Detach] removes one *)
  | Update of { program : string }
      (** one-shot fleet-wide UPDATE: replace the host program with the
          parsed {!Snapshot.program_of_string} text and broadcast to
          every session; answered with [Ack] or [Error] code 6.  At a
          director this runs the two-phase protocol across all shards. *)
  | Prepare of { txn : int; program : string }
      (** phase one of a cross-shard UPDATE (director → shard): diff,
          typecheck, compile and open the new epoch without applying it
          ({!Live_host.Broadcast.prepare}).  Answered with [Ack] or
          [Error] code 6; at most one transaction may be open per
          shard. *)
  | Commit of { txn : int }
      (** phase two: migrate the whole shard fleet to the prepared
          epoch and install it, in one step
          ({!Live_host.Broadcast.commit}); [txn] must match the open
          [Prepare] *)
  | Abort of { txn : int }
      (** retire the prepared epoch ({!Live_host.Broadcast.abort});
          every session stays on the old code *)
  | Observe
      (** ask for an [Observed] frame: the canonical observation text
          of every resident session, in session-id order — the fleet
          digest's raw material *)
  | Rebalance of { count : int }
      (** director only: migrate [count] sessions from the fullest to
          the emptiest shard via detach → snapshot → resume, proving
          byte-identical fleet digests before and after; answered with
          [Ack] or [Error] code 6 *)
  | Stats_data
      (** ask for a [Metrics] frame carrying the machine-readable
          {!Live_host.Host_metrics.export} text instead of the human
          dump — what a director merges across shards *)

(** Host → client. *)
type host_frame =
  | Attach of { session : int; width : int; frame : string }
      (** a session is now served on this connection; [frame] is the
          full framebuffer text (one row per line) *)
  | Delta of {
      session : int;
      height : int;
      acks : int;
      rows : (int * string) list;
    }
      (** damage-masked repaint after the session was served: the new
          frame height and only the rows whose text changed.  [acks] is
          the number of this session's offered events consumed since the
          last delta — the pipelining credit return; a server may batch
          several events into one delta, so one frame can acknowledge
          many ([acks] = 0 for unsolicited repaints, e.g. a broadcast
          UPDATE).  An empty [rows] with [acks] > 0 still acknowledges
          the served events (the frame was byte-identical).  Applying a
          delta: resize to [height] rows (new rows blank), then
          overwrite the listed rows. *)
  | Detached of { session : int; snapshot : string }
      (** reply to [Detach]: the canonical snapshot text *)
  | Error of { code : int; msg : string }
      (** [code] 1 = protocol violation (fatal, connection closes),
          2 = event rejected by backpressure, 3 = bad snapshot,
          4 = resume failed, 5 = unknown session, 6 = update / prepare
          / rebalance refused (nothing changed) *)
  | Metrics of { text : string }
      (** the fleet {!Live_host.Host_metrics} dump ([Stats]) or its
          machine-readable export ([Stats_data]) *)
  | Ack of { info : string }
      (** success reply to [Update] / [Prepare] / [Commit] / [Abort] /
          [Rebalance], with a short human-readable summary *)
  | Observed of { sessions : (int * string) list }
      (** reply to [Observe]: (session id, canonical observation text)
          for every resident session, in ascending id order *)

type frame = Client of client_frame | Host of host_frame

val equal : frame -> frame -> bool
val pp : Format.formatter -> frame -> unit

val encode : frame -> string
(** Full wire bytes, length prefix included.
    @raise Invalid_argument on out-of-range fields (negative ids, a
    blob longer than {!max_frame}) — encoder inputs are trusted,
    decoder inputs are not. *)

val encode_into : scratch:Buffer.t -> Buffer.t -> frame -> unit
(** Append the full wire bytes of a frame to a destination buffer,
    building the body in the caller-owned [scratch] (cleared first) —
    the allocation-free path for a connection that reuses one scratch
    and stages all of a tick's frames into one outbound buffer.
    [encode f] ≡ fresh buffers + [encode_into]; byte-identical.
    @raise Invalid_argument as {!encode}. *)

(** One step of decoding a byte stream. *)
type decoded =
  | Frame of frame * int
      (** a complete frame and the total bytes consumed (prefix
          included); continue decoding at [off + consumed] *)
  | Need_more  (** the buffer holds a prefix of a frame; read more *)
  | Corrupt of string  (** malformed input; the stream is dead *)

val decode : ?off:int -> string -> decoded
(** Decode one frame starting at [off] (default 0).  Total function:
    never raises, whatever the bytes are. *)

(** {2 Raw relay}

    The director's zero-copy fast path: look at a frame's envelope
    (length, version, tag, and — for session-addressed tags — the
    session id at a fixed offset) without decoding the payload, then
    forward the original bytes, patching only the id.  {!peek} is
    exactly as strict as {!decode} about framing (length bounds,
    version byte) but does {e not} validate the payload, so a relay
    must only fast-path tags whose payload it either trusts (its own
    shards) or has validated byte-wise ({!event_payload_ok}). *)

(** A complete frame located in a buffer: its start offset, total byte
    count (length prefix included), tag, and the session id for
    session-addressed tags ([-1] otherwise). *)
type raw = { r_off : int; r_total : int; r_tag : int; r_session : int }

type peeked = Raw of raw | Raw_need_more | Raw_corrupt of string

val session_addressed : int -> bool
(** Tags whose payload begins with a session id (frame offset 6):
    Event 0x02, Detach 0x03, Attach 0x81, Delta 0x82, Detached 0x83. *)

val peek : ?off:int -> string -> peeked
(** Locate one frame starting at [off] without decoding its payload.
    Agrees with {!decode} on framing verdicts: [Raw_need_more] iff
    decode says [Need_more]; a [Raw_corrupt] is always [Corrupt] to
    decode (the converse doesn't hold — a corrupt {e payload} peeks
    fine).  Never raises. *)

val relay : Buffer.t -> string -> raw -> unit
(** Append the frame's original bytes to the buffer, unchanged. *)

val relay_rewrite : Buffer.t -> string -> raw -> session:int -> unit
(** Append the frame's bytes with the session-id field replaced by
    [session] — byte-identical to decode → substitute id → re-encode,
    without touching the payload (qcheck-pinned in test_net).
    @raise Invalid_argument if the tag is not session-addressed. *)

val event_payload_ok : string -> raw -> bool
(** Byte-level validation of an [Event] frame's payload (exact length
    for its event kind, known kind byte, in-range coordinates): [true]
    iff {!decode} would accept it — what lets a director relay a
    client's event bytes to a shard without decoding them. *)

val apply_delta : string array -> height:int -> rows:(int * string) list -> string array
(** Client-side delta application: resize the previous frame's rows to
    [height] (new rows blank) and overwrite the listed rows — the
    reconstruction rule [Delta] is defined against. *)

val delta_of_frames : prev:string array -> string array -> (int * string) list
(** The rows of the new frame that differ from [prev] (rows beyond
    [prev]'s height count as blank) — the server's damage unit.
    [apply_delta prev ~height:(Array.length next) ~rows:(delta_of_frames
    ~prev next) = next]. *)

val rows_of_text : string -> string array
(** Split a framebuffer text dump (one row per line, trailing newline)
    into rows. *)

val text_of_rows : string array -> string
(** The inverse of {!rows_of_text}: each row followed by a newline. *)
