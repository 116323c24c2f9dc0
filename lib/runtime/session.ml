(** An interactive session: a system state (Fig. 7) driven by the
    transition rules (Fig. 9), connected to the character-cell display.

    The session keeps the state {e stable} between interactions: every
    public operation ends by draining the event queue and re-rendering
    (the "system is always live" loop of Sec. 4.2).  Screen-coordinate
    taps are resolved to handlers by hit-testing the laid-out box tree
    — the implementation counterpart of the TAP rule's premise
    [[ontap = v] ∈ B].

    With [~cache:true] the whole render pipeline is incremental, end to
    end: RENDER is memoized on the globals it reads
    ({!Live_core.Render_cache}), an unchanged box tree skips re-layout
    (physical identity — the cache returns the previous tree), and
    painting repaints only the damaged row spans
    ({!Live_ui.Render.paint_damaged}).  All of it is observationally
    transparent; {!render_cache_stats} and {!damage_stats} expose the
    hit/miss/damage counters for tests and benchmarks.

    A session also records the trace of user interactions, which the
    restart baseline replays and which this runtime deliberately never
    needs. *)

module Machine = Live_core.Machine
module State = Live_core.State

(** The last painted frame: box content, its layout, its pixels (and,
    inside the framebuffer, its row text). *)
type frame = {
  fbox : Live_core.Boxcontent.t;
  froot : Live_ui.Layout.node;
  ffb : Live_ui.Framebuffer.t;
}

(** Cumulative damage-painting counters (cache-enabled sessions). *)
type damage_totals = {
  frames : int;  (** display reads that painted something *)
  skipped_frames : int;  (** identical frames reused outright *)
  full_repaints : int;  (** height changes forcing a full paint *)
  repainted_rows : int;  (** dirty rows actually repainted *)
  total_rows : int;  (** rows a full repaint would have painted *)
}

let no_damage =
  {
    frames = 0;
    skipped_frames = 0;
    full_repaints = 0;
    repainted_rows = 0;
    total_rows = 0;
  }

(** Event-queue faults the conformance fuzzer injects (CRASH-style
    transitions): each is a one-shot modifier consumed by the next
    interaction that actually enqueues an event. *)
type fault = Drop_next_event | Duplicate_next_event

(** One journalled interaction, for rollback replay.  Taps are replayed
    by screen coordinates — the same resolution path a live user's
    finger takes — so a rewound session re-derives hits and misses
    from the restored display rather than trusting the recording. *)
type jop = J_tap of { x : int; y : int } | J_back | J_inject of fault

type t = {
  mutable state : State.t;
  width : int;
  fuel : int;
  evaluator : Machine.evaluator;
      (** closure-compiled (the default) or substitution evaluation;
          observationally identical, enforced by the conformance
          oracle's ["compiled"] configuration *)
  mutable layout : Live_ui.Layout.node option;
  mutable trace : Trace.t;
  cache : Live_ui.Layout.cache option;  (** incremental layout, if on *)
  render_cache : Live_core.Render_cache.t option;
      (** dependency-tracked render memoization, if on *)
  reuse : Live_ui.Layout.reuse option;
      (** previous-frame physical layout reuse (with [render_cache]) *)
  mutable frame : frame option;
      (** last painted frame, current while its box content is
          physically the display *)
  mutable damage : damage_totals;
  mutable pending_fault : fault option;
      (** consumed by the next tap/back that enqueues an event *)
  mutable epoch : int;
      (** the code epoch this session is pinned to; the registry keeps
          it consistent with [state.code] and points [render_cache] at
          the epoch's subtree tables *)
  mutable journal : jop list option;
      (** [Some ops] (newest first) while a checkpoint is armed:
          interactions recorded for rollback replay *)
}

let ( let* ) = Result.bind

let stabilize (t : t) : (unit, Machine.error) result =
  let* st =
    Machine.run_to_stable ~fuel:t.fuel ?cache:t.render_cache
      ~evaluator:t.evaluator t.state
  in
  t.state <- st;
  t.layout <- None;
  Ok ()

(* The render cache of a [~cache] session: over the given shared
   tables, or tables of its own. *)
let render_cache_of ~cache tables =
  if not cache then None
  else
    Some
      (match tables with
      | Some tb -> Live_core.Render_cache.share tb
      | None -> Live_core.Render_cache.create ())

let create ?(width = 48) ?(fuel = Live_core.Eval.default_fuel)
    ?(incremental = false) ?(cache = false) ?tables
    ?(evaluator = Machine.Compiled) (program : Live_core.Program.t) :
    (t, Machine.error) result =
  let t =
    {
      state = State.initial program;
      width;
      fuel;
      evaluator;
      layout = None;
      trace = Trace.empty;
      cache = (if incremental then Some (Live_ui.Layout.create_cache ()) else None);
      render_cache = render_cache_of ~cache tables;
      reuse = (if cache then Some (Live_ui.Layout.create_reuse ()) else None);
      frame = None;
      damage = no_damage;
      pending_fault = None;
      epoch = 0;
      journal = None;
    }
  in
  let* () = stabilize t in
  Ok t

(** Apply (and clear) the pending queue fault.  Called between the
    transition that enqueued an event and the stabilisation loop that
    would dispatch it — the only window in which a session's queue is
    non-empty. *)
let apply_pending_fault (t : t) : unit =
  match t.pending_fault with
  | None -> ()
  | Some f ->
      t.pending_fault <- None;
      t.state <-
        (match f with
        | Drop_next_event -> Machine.drop_oldest_event t.state
        | Duplicate_next_event -> Machine.duplicate_oldest_event t.state)

(** Record an interaction in the armed journal, if any. *)
let journal_op (t : t) (op : jop) : unit =
  match t.journal with
  | None -> ()
  | Some ops -> t.journal <- Some (op :: ops)

let inject (t : t) (f : fault) : unit =
  journal_op t (J_inject f);
  t.pending_fault <- Some f

(** Drop every warm structure the incremental pipeline holds: the
    render memoization cache, the previous frame (forcing the next
    screenshot to paint from scratch) and the memoized layout.  A
    forced flush must be observationally invisible — the conformance
    fuzzer injects it mid-trace and diffs the configurations after. *)
let flush_caches (t : t) : unit =
  Option.iter Live_core.Render_cache.flush t.render_cache;
  t.frame <- None;
  t.layout <- None

(** Rebuild a session from persisted state (see the interface): the
    state is reassembled with an invalid display and an empty queue,
    then driven to stability — RENDER re-derives the display (and so
    the pixels) deterministically from code, store and stack, which is
    what makes snapshot/restore byte-identical without ever
    serializing a framebuffer. *)
let restore ?(width = 48) ?(fuel = Live_core.Eval.default_fuel)
    ?(incremental = false) ?(cache = false) ?(evaluator = Machine.Compiled)
    ?(trace = Trace.empty) ?(fault = None) ~(store : Live_core.Store.t)
    ~(stack : (Live_core.Ident.page * Live_core.Ast.value) list)
    (program : Live_core.Program.t) : (t, Machine.error) result =
  let state0 = Live_core.State.initial program in
  let t =
    {
      state = { state0 with Live_core.State.store; stack };
      width;
      fuel;
      evaluator;
      layout = None;
      trace;
      cache = (if incremental then Some (Live_ui.Layout.create_cache ()) else None);
      render_cache = render_cache_of ~cache None;
      reuse = (if cache then Some (Live_ui.Layout.create_reuse ()) else None);
      frame = None;
      damage = no_damage;
      pending_fault = fault;
      epoch = 0;
      journal = None;
    }
  in
  let* () = stabilize t in
  Ok t

let state (t : t) = t.state
let evaluator (t : t) = t.evaluator
let fuel (t : t) = t.fuel
let pending_fault (t : t) = t.pending_fault
let trace (t : t) = t.trace
let width (t : t) = t.width

let display_content (t : t) : Live_core.Boxcontent.t option =
  match t.state.State.display with
  | State.Invalid -> None
  | State.Shown b -> Some b

(** The layout of the current display, computed lazily and cached until
    the next transition.  When the display is physically the last
    painted frame's (the render cache revalidated it, or nothing
    re-rendered since), that frame's layout is reused without
    recomputation. *)
let layout (t : t) : Live_ui.Layout.node option =
  match t.layout with
  | Some l -> Some l
  | None -> (
      match display_content t with
      | None -> None
      | Some b ->
          let l =
            match t.frame with
            | Some fr when fr.fbox == b -> fr.froot
            | _ ->
                Live_ui.Layout.layout_page ?cache:t.cache ?reuse:t.reuse
                  ~width:t.width b
          in
          t.layout <- Some l;
          Some l)

let full_paint (t : t) (root : Live_ui.Layout.node) :
    Live_ui.Framebuffer.t * Live_ui.Render.damage =
  let height = max 1 (Live_ui.Layout.total_height root) in
  let fb = Live_ui.Framebuffer.create ~width:t.width ~height in
  Live_ui.Render.paint fb root;
  (fb, { Live_ui.Render.repainted_rows = height; total_rows = height; full = true })

(** The current display's framebuffer, painted only if the last frame
    does not already show this display (physically the same box
    content); [None] iff the display is [⊥].  Sessions with the render
    cache repaint the rows the new layout damaged, starting from the
    last frame; plain sessions repaint in full. *)
let painted (t : t) : Live_ui.Framebuffer.t option =
  match (display_content t, layout t) with
  | None, _ | _, None -> None
  | Some b, Some root -> (
      match t.frame with
      | Some fr when fr.fbox == b ->
          (* the last frame is already this frame *)
          t.damage <-
            { t.damage with skipped_frames = t.damage.skipped_frames + 1 };
          Some fr.ffb
      | prev ->
          let fb, dmg =
            match (prev, t.render_cache) with
            | Some fr, Some _ ->
                Live_ui.Render.paint_damaged ~prev:(fr.froot, fr.ffb) root
            | _ -> full_paint t root
          in
          t.damage <-
            {
              t.damage with
              frames = t.damage.frames + 1;
              full_repaints =
                (t.damage.full_repaints
                + if dmg.Live_ui.Render.full then 1 else 0);
              repainted_rows =
                t.damage.repainted_rows + dmg.Live_ui.Render.repainted_rows;
              total_rows = t.damage.total_rows + dmg.Live_ui.Render.total_rows;
            };
          t.frame <- Some { fbox = b; froot = root; ffb = fb };
          Some fb)

let invalid_text = "<display invalid>"

let paint (t : t) : unit = ignore (painted t)

let rows (t : t) : string array =
  match painted t with
  | None -> [| invalid_text |]
  | Some fb -> Live_ui.Framebuffer.rows fb

let screenshot (t : t) : string =
  match painted t with
  | None -> invalid_text ^ "\n"
  | Some fb -> Live_ui.Framebuffer.to_text fb

let screenshot_ansi (t : t) : string =
  match display_content t with
  | None -> "<display invalid>\n"
  | Some b -> Live_ui.Render.screenshot_ansi ~width:t.width b

(** Outcome of a coordinate tap. *)
type tap_result =
  | Tapped  (** a handler ran; the display was refreshed *)
  | No_handler  (** nothing tappable at that position *)

(** Tap the display at screen coordinates, like a user's finger.
    Records the interaction in the trace either way (the user did
    touch the screen; whether it hit is a property of the current UI). *)
let tap (t : t) ~(x : int) ~(y : int) : (tap_result, Machine.error) result =
  journal_op t (J_tap { x; y });
  t.trace <- Trace.add (Trace.Tap { x; y }) t.trace;
  match layout t with
  | None -> Ok No_handler
  | Some root -> (
      match Live_ui.Layout.handler_at root ~x ~y with
      | None -> Ok No_handler
      | Some handler ->
          let* st = Machine.tap t.state ~handler in
          t.state <- st;
          apply_pending_fault t;
          let* () = stabilize t in
          Ok Tapped)

(** Tap the first handler in document order — convenient in tests. *)
let tap_first (t : t) : (tap_result, Machine.error) result =
  match display_content t with
  | None -> Ok No_handler
  | Some b -> (
      match Live_core.Boxcontent.first_handler b with
      | None -> Ok No_handler
      | Some handler ->
          let* st = Machine.tap t.state ~handler in
          t.state <- st;
          apply_pending_fault t;
          let* () = stabilize t in
          Ok Tapped)

(** The BACK button. *)
let back (t : t) : (unit, Machine.error) result =
  journal_op t J_back;
  t.trace <- Trace.add Trace.Back t.trace;
  t.state <- Machine.back t.state;
  apply_pending_fault t;
  stabilize t

(** Apply a code update (the UPDATE transition) and re-render.
    Returns the fix-up report: which globals and stack entries the
    update deleted.  Without [diff] the render cache flushes itself on
    the code swap (its entries are keyed to the old code); with [diff]
    the fix-up is targeted ({!Live_core.Fixup}) and the cache is
    {e retargeted} instead of flushed — entries whose definitions the
    diff proves unchanged survive the swap
    ({!Live_core.Render_cache.retarget}: the display entries, and the
    subtree tables if they are the session's own; a registry has
    already pointed the session at the new epoch's, so the new
    compilation is only consulted for the former).  Both preserve live-edit
    semantics exactly.  [checked] skips the code typecheck when the
    caller already ran {!Live_core.Machine.check_program} — the
    multi-session host's typecheck-once broadcast path. *)
let update ?(checked = false) ?diff (t : t) (new_code : Live_core.Program.t)
    : (Live_core.Fixup.report, Machine.error) result =
  let report = ref None in
  let* st = Machine.update ~checked ?diff ~report new_code t.state in
  (* Scoped invalidation, before [stabilize] re-renders under the new
     code (and [ensure_code] would otherwise flush wholesale).  Guarded
     like [Machine.update]'s diff use: the diff must span exactly this
     session's current code and the new code. *)
  (match (diff, t.render_cache) with
  | Some d, Some rc
    when Live_core.Program_diff.old_program d == t.state.State.code
         && Live_core.Program_diff.new_program d == new_code ->
      let keep_csite =
        lazy
          (match t.evaluator with
          | Machine.Compiled ->
              (* the new compilation (shared fleet-wide through the
                 compile cache) inherited the site ids of reused
                 definitions; entries at dead sites are stale *)
              let ct = Live_core.Compile_eval.get_incremental ~diff:d new_code in
              Live_core.Compile_eval.site_live ct
          | Machine.Subst -> fun _ -> true (* no csubtree entries exist *))
      in
      Live_core.Render_cache.retarget rc ~diff:d ~keep_csite new_code
  | _ -> ());
  t.state <- st;
  let* () = stabilize t in
  Ok
    (Option.value !report
       ~default:{ Live_core.Fixup.dropped_globals = []; dropped_pages = [] })

(* -- checkpoint / rollback ------------------------------------------- *)

(** A rollback point: the immutable parts of a session, captured by
    reference (state, trace and the pending fault are persistent
    values — no copying needed). *)
type checkpoint = {
  cp_state : State.t;
  cp_trace : Trace.t;
  cp_fault : fault option;
}

(** Capture a rollback point and arm the journal: every interaction
    from here on is recorded until {!commit} or {!rewind}. *)
let checkpoint (t : t) : checkpoint =
  t.journal <- Some [];
  { cp_state = t.state; cp_trace = t.trace; cp_fault = t.pending_fault }

(** Keep the current state: disarm the journal and discard it. *)
let commit (t : t) : unit = t.journal <- None

(** Restore the checkpoint, then replay the journalled interactions on
    top of it — the session ends byte-identical to one that never left
    the checkpointed code.  The previous frame, the layout and the
    render cache's display entries are dropped (the subtree tables
    follow the code: a registry points them back at the base epoch's,
    and tables of the abandoned code are never consulted under the
    restored one), which is observationally invisible.  Errors
    raised by replayed interactions are consumed and returned, exactly
    as the scheduler consumes per-event errors on the live path; an
    empty list is a clean rewind. *)
let rewind (t : t) (cp : checkpoint) : Machine.error list =
  let ops = match t.journal with Some ops -> List.rev ops | None -> [] in
  t.journal <- None;
  t.state <- cp.cp_state;
  t.trace <- cp.cp_trace;
  t.pending_fault <- cp.cp_fault;
  Option.iter Live_core.Render_cache.drop_displays t.render_cache;
  t.frame <- None;
  t.layout <- None;
  List.fold_left
    (fun errs op ->
      match op with
      | J_tap { x; y } -> (
          match tap t ~x ~y with Ok _ -> errs | Error e -> e :: errs)
      | J_back -> (
          match back t with Ok () -> errs | Error e -> e :: errs)
      | J_inject f ->
          inject t f;
          errs)
    [] ops
  |> List.rev

let journalling (t : t) : bool = t.journal <> None

(* -- epoch pin ------------------------------------------------------- *)

let epoch (t : t) : int = t.epoch

let pin (t : t) ~(epoch : int) (tables : Live_core.Render_cache.tables option)
    : unit =
  t.epoch <- epoch;
  match (t.render_cache, tables) with
  | Some rc, Some tb -> Live_core.Render_cache.bind rc tb
  | _ -> ()

let current_page (t : t) : (string * Live_core.Ast.value) option =
  State.top_page t.state

let store (t : t) = t.state.State.store

let cache_stats (t : t) : (int * int) option =
  Option.map Live_ui.Layout.cache_stats t.cache

let render_cache_stats (t : t) : Live_core.Render_cache.stats option =
  Option.map Live_core.Render_cache.stats t.render_cache

let render_cache_handle (t : t) : Live_core.Render_cache.t option =
  t.render_cache

let damage_stats (t : t) : damage_totals option =
  match t.render_cache with None -> None | Some _ -> Some t.damage
