(** Fleet-wide UPDATE (see the interface for the transaction
    contract): one prepare/commit pair that the flat broadcast, the
    staged rollout and a shard's two-phase commit all run. *)

module Session = Live_runtime.Session
module Machine = Live_core.Machine
module Fixup = Live_core.Fixup
module Program_diff = Live_core.Program_diff

type session_outcome = {
  id : Registry.id;
  outcome : (Fixup.report, Machine.error) result;
}

type typecheck_mode = Scratch | Incremental | Cross_check

type report = {
  outcomes : session_outcome list;
  fanout_ns : float;
  typecheck_ns : float;
  diff_ns : float;
  compile_ns : float;
  dirty_defs : int;
  recheck_defs : int;
  incremental : bool;
  dropped_globals : int;
  dropped_pages : int;
}

(* The typecheck phase: run the scratch checker, the incremental one
   (when a diff against a known-good old program is available), or both.
   Returns the verdict plus whether the accepted path may hand the diff
   down to the fan-out (only when the incremental premise held — the
   old code passed its own check). *)
let run_typecheck (mode : typecheck_mode) ~(old_checked : bool)
    ~(diff : Program_diff.t) (new_code : Live_core.Program.t) :
    (unit, Machine.error) result * bool =
  let scratch () = Machine.check_program new_code in
  let incremental () = Machine.check_program_incremental ~diff new_code in
  match mode with
  | Scratch -> (scratch (), false)
  | Incremental when old_checked -> (incremental (), true)
  | Incremental -> (scratch (), false)
  | Cross_check ->
      let s = scratch () in
      if not old_checked then (s, false)
      else
        let i = incremental () in
        let agree =
          match (s, i) with
          | Ok (), Ok () -> true
          | Error a, Error b ->
              String.equal (Machine.error_to_string a)
                (Machine.error_to_string b)
          | _ -> false
        in
        if agree then (s, true)
        else
          ( Error
              (Machine.Ill_typed
                 (Printf.sprintf
                    "typecheck divergence: scratch %s, incremental %s"
                    (match s with
                    | Ok () -> "accepted"
                    | Error e -> "rejected (" ^ Machine.error_to_string e ^ ")")
                    (match i with
                    | Ok () -> "accepted"
                    | Error e -> "rejected (" ^ Machine.error_to_string e ^ ")"))),
            false )

type txn = {
  reg : Registry.t;
  target : Live_core.Program.t;
  diff : Program_diff.t;
  incremental : bool;  (** the diff is handed to the target epoch *)
  base_epoch : int;
  target_epoch : int;
  typecheck_ns : float;
  diff_ns : float;
  compile_ns : float;
  mutable resolved : bool;
}

let refuse (m : Host_metrics.t) (e : Machine.error) =
  m.Host_metrics.updates_rejected <- m.Host_metrics.updates_rejected + 1;
  Error e

let prepare ?(typecheck = Incremental) (reg : Registry.t)
    (target : Live_core.Program.t) : (txn, Machine.error) result =
  let m = Registry.metrics reg in
  if Registry.rollout_open reg then
    (* a third code version would break the two-epoch invariant; the
       open transaction must resolve first *)
    refuse m (Machine.Not_enabled "update refused: a transaction is open")
  else
  let base = Registry.program reg in
  let t_diff = Host_metrics.now () in
  let diff = Program_diff.diff ~old_prog:base target in
  let diff_ns = (Host_metrics.now () -. t_diff) *. 1e9 in
  let t_check = Host_metrics.now () in
  let verdict, use_diff =
    run_typecheck typecheck ~old_checked:(Registry.program_checked reg) ~diff
      target
  in
  let typecheck_ns = (Host_metrics.now () -. t_check) *. 1e9 in
  m.Host_metrics.typecheck_last_ns <- typecheck_ns;
  m.Host_metrics.diff_last_ns <- diff_ns;
  m.Host_metrics.dirty_defs_last <- Program_diff.dirty_count diff;
  m.Host_metrics.recheck_defs_last <- Program_diff.recheck_count diff;
  Host_metrics.record m.Host_metrics.update_typecheck typecheck_ns;
  (if use_diff then
     m.Host_metrics.broadcasts_incremental <-
       m.Host_metrics.broadcasts_incremental + 1
   else
     m.Host_metrics.broadcasts_scratch <- m.Host_metrics.broadcasts_scratch + 1);
  match verdict with
  | Error e -> refuse m e (* all-or-nothing: nothing was touched *)
  | Ok () ->
      let base_epoch = Registry.current_epoch reg in
      (* the target epoch is compiled and its render tables built once,
         before the fan-out, so every session's first dispatch and
         render under the new code finds them warm; when the diff is
         handed down (the incremental premise held) only the dirty
         definitions are recompiled and only their entries dropped *)
      let t_compile = Host_metrics.now () in
      let target_epoch =
        Registry.open_rollout
          ?diff:(if use_diff then Some diff else None)
          reg target
      in
      let compile_ns = (Host_metrics.now () -. t_compile) *. 1e9 in
      m.Host_metrics.compile_last_ns <- compile_ns;
      Ok
        {
          reg;
          target;
          diff;
          incremental = use_diff;
          base_epoch;
          target_epoch;
          typecheck_ns;
          diff_ns;
          compile_ns;
          resolved = false;
        }

let check_open (t : txn) (what : string) : unit =
  if t.resolved then
    invalid_arg ("Broadcast." ^ what ^ ": transaction already resolved")

(* the diff handed to the fan-out, when the incremental premise held *)
let scope (t : txn) = if t.incremental then Some t.diff else None

(* Pin first, so the session's post-update render already runs against
   the target epoch's tables. *)
let migrate (t : txn) (id : Registry.id) : session_outcome option =
  check_open t "migrate";
  Option.map
    (fun s ->
      Registry.pin_session t.reg id t.target_epoch;
      let outcome = Session.update ~checked:true ?diff:(scope t) s t.target in
      { id; outcome })
    (Registry.session t.reg id)

let commit (t : txn) : report =
  check_open t "commit";
  let m = Registry.metrics t.reg in
  let t0 = Host_metrics.now () in
  let outcomes =
    List.filter_map
      (fun id ->
        if Registry.session_epoch t.reg id = Some t.target_epoch then None
        else migrate t id)
      (Registry.ids t.reg)
  in
  Registry.promote_rollout t.reg;
  t.resolved <- true;
  let fanout_ns = (Host_metrics.now () -. t0) *. 1e9 in
  m.Host_metrics.updates_applied <- m.Host_metrics.updates_applied + 1;
  m.Host_metrics.fanout_last_ns <- fanout_ns;
  Host_metrics.record m.Host_metrics.update_fanout fanout_ns;
  let count f =
    List.fold_left
      (fun acc o ->
        match o.outcome with Ok r -> acc + List.length (f r) | Error _ -> acc)
      0 outcomes
  in
  {
    outcomes;
    fanout_ns;
    typecheck_ns = t.typecheck_ns;
    diff_ns = t.diff_ns;
    compile_ns = t.compile_ns;
    dirty_defs = Program_diff.dirty_count t.diff;
    recheck_defs = Program_diff.recheck_count t.diff;
    incremental = t.incremental;
    dropped_globals = count (fun r -> r.Fixup.dropped_globals);
    dropped_pages = count (fun r -> r.Fixup.dropped_pages);
  }

let abort (t : txn) : unit =
  check_open t "abort";
  Registry.rollback_rollout t.reg;
  t.resolved <- true

let update ?typecheck (reg : Registry.t) (new_code : Live_core.Program.t) :
    (report, Machine.error) result =
  Result.map commit (prepare ?typecheck reg new_code)

let base_epoch (t : txn) = t.base_epoch
let target_epoch (t : txn) = t.target_epoch
let diff (t : txn) = t.diff
let incremental (t : txn) = t.incremental
