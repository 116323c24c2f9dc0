(** Interaction traces, addressed by screen coordinates like a real
    user's finger.  Only the restart baseline records them
    ({!Live_baseline.Restart_runtime}): it replays its trace to win
    back UI context after every code change — and diverges when the
    edit moves boxes (Sec. 1's trace-re-execution problem).  A live
    {!Session} keeps no trace; it never needs one. *)

type entry = Tap of { x : int; y : int } | Back
type t = entry list

val empty : t
val add : entry -> t -> t
val length : t -> int
val equal : t -> t -> bool
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Canonical line-oriented serialization ([tap X Y] / [back], oldest
    first), suitable for checking traces into the repository. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [to_string] of the result is
    byte-identical to a canonically formatted input. *)
