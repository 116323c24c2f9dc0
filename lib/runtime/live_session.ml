(** The live-programming environment: a running {!Session} paired with
    its surface source, supporting the paper's three features (Sec. 3):

    - {b Live Editing}: {!edit} compiles the new source and applies the
      UPDATE transition — the program keeps running, model state
      survives, the display refreshes under the new code.  A source
      that does not compile leaves the running program untouched (the
      editor keeps executing the last good version while the programmer
      is mid-edit).
    - {b UI-Code Navigation}: {!select_box} / {!frames_of_stmt}
      delegate to {!Navigation}.
    - {b Direct Manipulation}: see {!Direct_manipulation}, which edits
      the AST and routes the result through {!edit_ast}. *)

type t = {
  session : Session.t;
  mutable compiled : Live_surface.Compile.compiled;
  mutable history : string list;  (** previous sources, newest first *)
  mutable last_error : Live_surface.Compile.error option;
}

type error =
  | Compile_error of Live_surface.Compile.error
  | Runtime_error of Live_core.Machine.error

let error_to_string = function
  | Compile_error e -> Live_surface.Compile.error_to_string e
  | Runtime_error e -> Live_core.Machine.error_to_string e

let create ?width ?fuel ?cache (source : string) : (t, error) result =
  match Live_surface.Compile.compile source with
  | Error e -> Error (Compile_error e)
  | Ok compiled -> (
      match
        Session.create ?width ?fuel ?cache compiled.Live_surface.Compile.core
      with
      | Error e -> Error (Runtime_error e)
      | Ok session ->
          Ok { session; compiled; history = []; last_error = None })

let session (t : t) = t.session
let compiled (t : t) = t.compiled
let source (t : t) = t.compiled.Live_surface.Compile.source
let last_error (t : t) = t.last_error

(** The outcome of a live edit. *)
type edit_outcome = {
  report : Live_core.Fixup.report;
      (** what the fix-up (Fig. 12) deleted *)
  screenshot : string;  (** the refreshed live view *)
}

(** Apply a code edit to the running program.  On a compile error the
    session keeps running the previous code (and the error is recorded
    for the editor to display); on success the UPDATE transition swaps
    the code, fixes up the state, and re-renders. *)
let edit (t : t) (new_source : string) : (edit_outcome, error) result =
  match Live_surface.Compile.compile new_source with
  | Error e ->
      t.last_error <- Some e;
      Error (Compile_error e)
  | Ok compiled -> (
      match
        Session.update t.session compiled.Live_surface.Compile.core
      with
      | Error e -> Error (Runtime_error e)
      | Ok report ->
          t.history <- source t :: t.history;
          t.compiled <- compiled;
          t.last_error <- None;
          Ok { report; screenshot = Session.screenshot t.session })

(** Apply an AST-level edit (direct manipulation): print, recompile,
    update. *)
let edit_ast (t : t) (ast : Live_surface.Sast.program) :
    (edit_outcome, error) result =
  edit t (Live_surface.Printer.program_to_string ast)

(** Revert to the previous source version, if any. *)
let undo (t : t) : (edit_outcome, error) result option =
  match t.history with
  | [] -> None
  | prev :: rest ->
      let r = edit t prev in
      (* [edit] pushed the undone version; restore a linear history *)
      (match r with Ok _ -> t.history <- rest | Error _ -> ());
      Some r

(* -- interaction passthrough --------------------------------------- *)

let tap (t : t) ~x ~y : (Session.tap_result, error) result =
  Result.map_error (fun e -> Runtime_error e) (Session.tap t.session ~x ~y)

let tap_first (t : t) : (Session.tap_result, error) result =
  Result.map_error (fun e -> Runtime_error e) (Session.tap_first t.session)

let back (t : t) : (unit, error) result =
  Result.map_error (fun e -> Runtime_error e) (Session.back t.session)

let screenshot (t : t) : string = Session.screenshot t.session
let screenshot_ansi (t : t) : string = Session.screenshot_ansi t.session

(* -- navigation ----------------------------------------------------- *)

let select_box (t : t) ~x ~y : Navigation.selection option =
  Navigation.select_at t.session t.compiled ~x ~y

let enclosing_boxes (t : t) ~x ~y : Navigation.selection list =
  Navigation.enclosing_at t.session t.compiled ~x ~y

let frames_of_stmt (t : t) (id : Live_core.Srcid.t) :
    Live_ui.Geometry.rect list =
  Navigation.frames_of_stmt t.session id
