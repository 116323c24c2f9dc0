(** Fleet-wide UPDATE (see the interface for the transaction
    contract). *)

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

let update ?(typecheck = Incremental)
    (reg : Registry.t) (new_code : Live_core.Program.t) :
    (report, Machine.error) result =
  let m = Registry.metrics reg in
  if Registry.rollout_open reg then begin
    (* a flat broadcast during an open rollout would install a third
       code version and break the two-epoch invariant; the caller must
       resolve the rollout first (Rollout.promote / Rollout.rollback) *)
    m.Host_metrics.updates_rejected <- m.Host_metrics.updates_rejected + 1;
    Error
      (Machine.Not_enabled
         "broadcast update refused: a staged rollout is open")
  end
  else
  let old_code = Registry.program reg in
  let old_checked = Registry.program_checked reg in
  let t_diff = Host_metrics.now () in
  let diff = Program_diff.diff ~old_prog:old_code new_code in
  let diff_ns = (Host_metrics.now () -. t_diff) *. 1e9 in
  let t_check = Host_metrics.now () in
  let verdict, use_diff =
    run_typecheck typecheck ~old_checked ~diff new_code
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
  | Error e ->
      (* all-or-nothing: the typecheck failed, nothing was touched *)
      m.Host_metrics.updates_rejected <- m.Host_metrics.updates_rejected + 1;
      Error e
  | Ok () ->
      (* compile once, before the fan-out: every session's first
         dispatch/render under the new code hits the warm compile
         cache, mirroring the typecheck-once contract.  With a usable diff
         the compilation itself is incremental: only the dirty
         definitions are recompiled, the rest keep their closures and
         memoization site ids. *)
      let t_compile = Host_metrics.now () in
      (if (Registry.config reg).Registry.evaluator = Machine.Compiled then
         if use_diff then
           ignore
             (Live_core.Compile_eval.get_incremental ~diff new_code
               : Live_core.Compile_eval.t)
         else
           ignore (Live_core.Compile_eval.get new_code
                    : Live_core.Compile_eval.t));
      let compile_ns = (Host_metrics.now () -. t_compile) *. 1e9 in
      m.Host_metrics.compile_last_ns <- compile_ns;
      let t0 = Host_metrics.now () in
      let diff_opt = if use_diff then Some diff else None in
      let outcomes =
        List.map
          (fun id ->
            match Registry.session reg id with
            | None -> assert false (* ids come from the registry *)
            | Some s ->
                {
                  id;
                  outcome = Session.update ~checked:true ?diff:diff_opt s new_code;
                })
          (Registry.ids reg)
      in
      Registry.set_program reg new_code;
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
      Ok
        {
          outcomes;
          fanout_ns;
          typecheck_ns;
          diff_ns;
          compile_ns;
          dirty_defs = Program_diff.dirty_count diff;
          recheck_defs = Program_diff.recheck_count diff;
          incremental = use_diff;
          dropped_globals = count (fun r -> r.Fixup.dropped_globals);
          dropped_pages = count (fun r -> r.Fixup.dropped_pages);
        }

let report_to_string (r : report) : string =
  let b = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string b)
    "broadcast: %d sessions in %.2f ms; %d globals / %d pages dropped \
     fleet-wide\n"
    (List.length r.outcomes) (r.fanout_ns /. 1e6) r.dropped_globals
    r.dropped_pages;
  Printf.ksprintf (Buffer.add_string b)
    "  typecheck %s: %.2f ms (diff %.2f ms, %d dirty / %d rechecked defs); \
     compile %.2f ms\n"
    (if r.incremental then "incremental" else "scratch")
    (r.typecheck_ns /. 1e6) (r.diff_ns /. 1e6) r.dirty_defs r.recheck_defs
    (r.compile_ns /. 1e6);
  List.iter
    (fun { id; outcome } ->
      match outcome with
      | Ok rep when rep.Fixup.dropped_globals = [] && rep.Fixup.dropped_pages = []
        ->
          ()
      | Ok rep ->
          Printf.ksprintf (Buffer.add_string b) "  session %d: %s\n" id
            (Fixup.report_to_string rep)
      | Error e ->
          Printf.ksprintf (Buffer.add_string b) "  session %d: ERROR %s\n" id
            (Machine.error_to_string e))
    r.outcomes;
  Buffer.contents b
