(** Canonical session snapshots: the persistence half of detach/resume
    (DESIGN.md §12.3).

    A snapshot is the complete durable identity of a session, and only
    what the session owns: the code [C], the store [S], the page stack
    [P] (Fig. 7), a still-armed queue fault, and any events taken from
    the host's ingress queue but not yet served.  The display and
    pixels are deliberately {e not} serialized: RENDER re-derives them
    deterministically on restore ({!Live_runtime.Session.restore}), so
    a restored session is byte-identical to one that never detached —
    the oracle's ["host-net"] configuration and [test/test_net.ml]
    enforce exactly that.  Nor are engine settings (width, fuel,
    evaluator, render cache): the host that resumes a snapshot runs it
    under its own {!Live_host.Registry.config}.

    The text format is a canonical s-expression (grammar in
    DESIGN.md §12.3): one snapshot value has exactly one printed
    image, so [of_string (to_string s)] re-prints byte-identically —
    snapshots can be diffed, digested and checked into a repository.
    Floats are printed as C99 hex-float literals ([%h]), which
    round-trip every bit pattern including negative zero. *)

type t = {
  program : Live_core.Program.t;
  store : (Live_core.Ident.global * Live_core.Ast.value) list;
      (** assigned globals, in {!Live_core.Store.bindings} order *)
  stack : (Live_core.Ident.page * Live_core.Ast.value) list;
      (** page stack, top last (as in {!Live_core.State}) *)
  fault : Live_runtime.Session.fault option;
  pending : Wire.event list;
      (** events taken from the ingress queue but not yet served;
          re-offered in order after resume *)
}

val of_session : ?pending:Wire.event list -> Live_runtime.Session.t -> t
(** Capture a session.  The session is read, not consumed — the
    caller (the server's [Detach] path) kills it separately. *)

val to_string : t -> string
(** The canonical text.  Total on values produced by {!of_session} or
    {!of_string}. *)

val of_string : string -> (t, string) result
(** Parse canonical text of format version 2.  Total: malformed input
    is [Error reason], never an exception; text of another version
    (version 1 carried engine settings and a trace) is an [Error] that
    names the version.  [to_string] of the result is byte-identical to
    [to_string] of the value that produced the input. *)

val program_to_string : Live_core.Program.t -> string
(** Canonical text of a bare program — the same [(program def ...)]
    s-expression a full snapshot embeds, for shipping code over the
    wire ([Update] / [Prepare] frames). *)

val program_of_string : string -> (Live_core.Program.t, string) result
(** Parse {!program_to_string} text.  Total: malformed input is
    [Error reason], never an exception. *)

val program_equal : Live_core.Program.t -> Live_core.Program.t -> bool
(** Structural equality of programs, definition by definition — used
    by {!restore} to decide whether a host-supplied program is the
    same code the snapshot carries. *)

val restore :
  ?program:Live_core.Program.t ->
  Live_host.Registry.config ->
  t ->
  (Live_runtime.Session.t, string) result
(** Rebuild a live session from a snapshot and drive it to stability
    under the resuming host's engine settings: the [config]'s width,
    fuel, evaluator and render cache (its queue settings are the
    registry's business).  [program], when given and {!program_equal}
    to the snapshot's code, is used in its place — the server passes
    the registry's current program so a resumed session shares it
    {e physically} (the registry's epoch accounting compares code by
    identity).  A
    [program] that differs structurally is ignored; the caller decides
    whether to then UPDATE the resumed session to the host's code.
    Pending events are {e not} re-offered here ({!pending} is data);
    the server re-offers them through its normal ingress path. *)

val save : string -> t -> unit
(** Write [to_string] to a file (atomically: temp file + rename). *)

val load : string -> (t, string) result
