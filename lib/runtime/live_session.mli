(** The live-programming environment (Sec. 3): a running session
    paired with its surface source.

    - {b Live Editing}: {!edit} compiles and applies the UPDATE
      transition; the program keeps running, the model survives, and a
      source that fails to compile leaves the running program
      untouched (the editor keeps executing the last good version).
    - {b UI-Code Navigation}: {!select_box}, {!enclosing_boxes},
      {!frames_of_stmt}.
    - {b Direct Manipulation}: see {!Direct_manipulation}. *)

type t

type error =
  | Compile_error of Live_surface.Compile.error
  | Runtime_error of Live_core.Machine.error

val error_to_string : error -> string

val create :
  ?width:int ->
  ?fuel:int ->
  ?cache:bool ->
  string ->
  (t, error) result
(** [cache] enables the end-to-end incremental render pipeline (see
    {!Session.create}). *)

val session : t -> Session.t
val compiled : t -> Live_surface.Compile.compiled
val source : t -> string

val last_error : t -> Live_surface.Compile.error option
(** The most recent rejected edit, for the editor to display. *)

type edit_outcome = {
  report : Live_core.Fixup.report;
  screenshot : string;  (** the refreshed live view *)
}

val edit : t -> string -> (edit_outcome, error) result
val edit_ast : t -> Live_surface.Sast.program -> (edit_outcome, error) result

val undo : t -> (edit_outcome, error) result option
(** Revert to the previous source version; [None] without history. *)

val tap : t -> x:int -> y:int -> (Session.tap_result, error) result
val tap_first : t -> (Session.tap_result, error) result
val back : t -> (unit, error) result
val screenshot : t -> string
val screenshot_ansi : t -> string

val select_box : t -> x:int -> y:int -> Navigation.selection option
val enclosing_boxes : t -> x:int -> y:int -> Navigation.selection list
val frames_of_stmt : t -> Live_core.Srcid.t -> Live_ui.Geometry.rect list
