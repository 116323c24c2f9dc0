(** Staged rollouts of edit transactions (see the interface for the
    lifecycle and the two soundness statements). *)

module Session = Live_runtime.Session
module Machine = Live_core.Machine
module Program_diff = Live_core.Program_diff
module Compile_eval = Live_core.Compile_eval
module Prng = Live_core.Prng

type stage = Staged | Canarying | Promoted | Rolled_back

type t = {
  reg : Registry.t;
  base : Live_core.Program.t;
  target : Live_core.Program.t;
  diff : Program_diff.t;
  use_diff : bool;  (** the incremental premise held at [begin_] *)
  base_epoch : int;
  new_epoch : int;
  canary : Registry.id list;  (** ascending; fixed at [begin_] *)
  mutable checkpoints : (Registry.id * Session.checkpoint) list;
      (** newest first; non-empty exactly while [Canarying] *)
  mutable stage : stage;
}

let compose ~(base : Live_core.Program.t)
    (edits : (Live_core.Program.t -> Live_core.Program.t) list) :
    Live_core.Program.t =
  List.fold_left (fun p edit -> edit p) base edits

(** The canary cohort: [k = ceil (fraction * n)] (clamped to [1..n])
    ids drawn by a seeded partial Fisher–Yates shuffle — deterministic
    in (seed, fleet), so a shadow fleet replaying the same seeded load
    selects the same cohort. *)
let select_cohort ~(seed : int) ~(fraction : float)
    (ids : Registry.id list) : Registry.id list =
  let arr = Array.of_list ids in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let k =
      min n (max 1 (int_of_float (Float.ceil (fraction *. float_of_int n))))
    in
    let rng = Prng.create (Prng.derive seed 0) in
    for i = 0 to k - 1 do
      let j = i + Prng.int rng (n - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    List.sort compare (Array.to_list (Array.sub arr 0 k))
  end

let begin_ ?(typecheck = Broadcast.Incremental) ?(fraction = 0.1)
    ~(seed : int) (reg : Registry.t) (target : Live_core.Program.t) :
    (t, Machine.error) result =
  if Registry.rollout_open reg then
    invalid_arg "Rollout.begin_: a rollout is already open";
  let m = Registry.metrics reg in
  let base = Registry.program reg in
  let t_check = Host_metrics.now () in
  let diff = Program_diff.diff ~old_prog:base target in
  let verdict, use_diff =
    Broadcast.run_typecheck typecheck
      ~old_checked:(Registry.program_checked reg)
      ~diff target
  in
  let typecheck_ns = (Host_metrics.now () -. t_check) *. 1e9 in
  m.Host_metrics.typecheck_last_ns <- typecheck_ns;
  m.Host_metrics.dirty_defs_last <- Program_diff.dirty_count diff;
  m.Host_metrics.recheck_defs_last <- Program_diff.recheck_count diff;
  Host_metrics.record m.Host_metrics.update_typecheck typecheck_ns;
  match verdict with
  | Error e ->
      (* all-or-nothing at transaction granularity: the change set was
         refused as a whole, no epoch opened, no session touched *)
      m.Host_metrics.updates_rejected <- m.Host_metrics.updates_rejected + 1;
      Error e
  | Ok () ->
      let base_epoch = Registry.current_epoch reg in
      let new_epoch = Registry.open_rollout reg target in
      (* both epochs' compilations must survive the whole window *)
      (if (Registry.config reg).Registry.evaluator = Machine.Compiled then begin
         Compile_eval.pin_epoch ~epoch:base_epoch base;
         if use_diff then Compile_eval.pin_epoch ~epoch:new_epoch ~diff target
         else Compile_eval.pin_epoch ~epoch:new_epoch target
       end);
      let canary = select_cohort ~seed ~fraction (Registry.ids reg) in
      m.Host_metrics.rollouts_begun <- m.Host_metrics.rollouts_begun + 1;
      m.Host_metrics.canary_sessions_last <- List.length canary;
      Ok
        {
          reg;
          base;
          target;
          diff;
          use_diff;
          base_epoch;
          new_epoch;
          canary;
          checkpoints = [];
          stage = Staged;
        }

let unpin (t : t) : unit =
  if (Registry.config t.reg).Registry.evaluator = Machine.Compiled then begin
    Compile_eval.unpin_epoch ~epoch:t.base_epoch;
    Compile_eval.unpin_epoch ~epoch:t.new_epoch
  end

(** Update one session to the target epoch, mirroring the broadcast
    fan-out exactly (same [~checked]/[?diff] path, same
    pin-regardless-of-outcome — {!Registry.set_program} re-pins
    erroring sessions too). *)
let migrate (t : t) (id : Registry.id) (s : Session.t) :
    Broadcast.session_outcome =
  let diff_opt = if t.use_diff then Some t.diff else None in
  let outcome = Session.update ~checked:true ?diff:diff_opt s t.target in
  Registry.pin_session t.reg id t.new_epoch;
  { Broadcast.id; outcome }

let canary (t : t) : Broadcast.session_outcome list =
  if t.stage <> Staged then invalid_arg "Rollout.canary: not in Staged";
  let outcomes =
    List.filter_map
      (fun id ->
        match Registry.session t.reg id with
        | None -> None (* killed since begin_ *)
        | Some s ->
            t.checkpoints <- (id, Session.checkpoint s) :: t.checkpoints;
            Some (migrate t id s))
      t.canary
  in
  t.stage <- Canarying;
  outcomes

let promote (t : t) : Broadcast.session_outcome list =
  if t.stage <> Canarying then invalid_arg "Rollout.promote: not in Canarying";
  let m = Registry.metrics t.reg in
  let is_canary = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace is_canary id ()) t.canary;
  let t0 = Host_metrics.now () in
  let outcomes =
    List.filter_map
      (fun id ->
        if Hashtbl.mem is_canary id then None
        else
          match Registry.session t.reg id with
          | None -> None
          | Some s -> Some (migrate t id s))
      (Registry.ids t.reg)
  in
  List.iter
    (fun (id, _) ->
      match Registry.session t.reg id with
      | Some s -> Session.commit s
      | None -> ())
    t.checkpoints;
  t.checkpoints <- [];
  Registry.promote_rollout t.reg;
  unpin t;
  let fanout_ns = (Host_metrics.now () -. t0) *. 1e9 in
  m.Host_metrics.updates_applied <- m.Host_metrics.updates_applied + 1;
  m.Host_metrics.fanout_last_ns <- fanout_ns;
  Host_metrics.record m.Host_metrics.update_fanout fanout_ns;
  m.Host_metrics.rollouts_promoted <- m.Host_metrics.rollouts_promoted + 1;
  t.stage <- Promoted;
  outcomes

let rollback (t : t) : (Registry.id * Machine.error) list =
  (match t.stage with
  | Staged | Canarying -> ()
  | Promoted | Rolled_back ->
      invalid_arg "Rollout.rollback: already resolved");
  let errs =
    List.concat_map
      (fun (id, cp) ->
        match Registry.session t.reg id with
        | None -> [] (* killed mid-window: nothing to rewind *)
        | Some s -> List.map (fun e -> (id, e)) (Session.rewind s cp))
      (List.rev t.checkpoints)
  in
  t.checkpoints <- [];
  Registry.rollback_rollout t.reg;
  unpin t;
  let m = Registry.metrics t.reg in
  m.Host_metrics.rollouts_rolled_back <-
    m.Host_metrics.rollouts_rolled_back + 1;
  t.stage <- Rolled_back;
  errs

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let stage (t : t) : stage = t.stage
let canary_ids (t : t) : Registry.id list = t.canary

let shadow_ids (t : t) : Registry.id list =
  let is_canary = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace is_canary id ()) t.canary;
  List.filter (fun id -> not (Hashtbl.mem is_canary id)) (Registry.ids t.reg)

let base (t : t) = t.base
let target (t : t) = t.target
let base_epoch (t : t) = t.base_epoch
let target_epoch (t : t) = t.new_epoch

type health = {
  h_stage : stage;
  canary_digest : string;
  shadow_digest : string;
  canary_accounting : Registry.cohort_accounting;
  shadow_accounting : Registry.cohort_accounting;
  accounting_ok : bool;
  epoch_violations : (Registry.id * string) list;
  invariant_violations : (Registry.id * string) list;
}

let observe (t : t) : health =
  let shadow = shadow_ids t in
  let ca = Registry.cohort_accounting t.reg t.canary in
  let sa = Registry.cohort_accounting t.reg shadow in
  {
    h_stage = t.stage;
    canary_digest = Registry.digest_cohort t.reg t.canary;
    shadow_digest = Registry.digest_cohort t.reg shadow;
    canary_accounting = ca;
    shadow_accounting = sa;
    accounting_ok =
      Registry.cohort_accounting_ok ca && Registry.cohort_accounting_ok sa;
    epoch_violations = Registry.check_epochs t.reg;
    invariant_violations = Registry.check_invariants t.reg;
  }

let healthy (h : health) : bool =
  h.accounting_ok && h.epoch_violations = [] && h.invariant_violations = []

let stage_to_string = function
  | Staged -> "staged"
  | Canarying -> "canarying"
  | Promoted -> "promoted"
  | Rolled_back -> "rolled back"

let summary (t : t) : string =
  Printf.sprintf
    "rollout %s: epoch %d -> %d, %d canaries / %d shadow; change set \
     touches [%s]%s"
    (stage_to_string t.stage) t.base_epoch t.new_epoch
    (List.length t.canary)
    (List.length (shadow_ids t))
    (String.concat "; " (Program_diff.dirty_names t.diff))
    (if t.use_diff then " (incremental)" else " (scratch)")
