(** Staged rollouts of edit transactions (see the interface for the
    lifecycle and the two soundness statements). *)

module Session = Live_runtime.Session
module Machine = Live_core.Machine
module Program_diff = Live_core.Program_diff
module Prng = Live_core.Prng

type stage = Staged | Canarying | Promoted | Rolled_back

type t = {
  reg : Registry.t;
  txn : Broadcast.txn;
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

let begin_ ?typecheck ?(fraction = 0.1) ~(seed : int) (reg : Registry.t)
    (target : Live_core.Program.t) : (t, Machine.error) result =
  if Registry.rollout_open reg then
    invalid_arg "Rollout.begin_: a rollout is already open";
  Result.map
    (fun txn ->
      let m = Registry.metrics reg in
      let canary = select_cohort ~seed ~fraction (Registry.ids reg) in
      m.Host_metrics.rollouts_begun <- m.Host_metrics.rollouts_begun + 1;
      m.Host_metrics.canary_sessions_last <- List.length canary;
      { reg; txn; canary; checkpoints = []; stage = Staged })
    (Broadcast.prepare ?typecheck reg target)

let canary (t : t) : Broadcast.session_outcome list =
  if t.stage <> Staged then invalid_arg "Rollout.canary: not in Staged";
  let outcomes =
    List.filter_map
      (fun id ->
        match Registry.session t.reg id with
        | None -> None (* killed since begin_ *)
        | Some s ->
            t.checkpoints <- (id, Session.checkpoint s) :: t.checkpoints;
            Broadcast.migrate t.txn id)
      t.canary
  in
  t.stage <- Canarying;
  outcomes

let promote (t : t) : Broadcast.session_outcome list =
  if t.stage <> Canarying then invalid_arg "Rollout.promote: not in Canarying";
  let report = Broadcast.commit t.txn in
  List.iter
    (fun (id, _) -> Option.iter Session.commit (Registry.session t.reg id))
    t.checkpoints;
  t.checkpoints <- [];
  let m = Registry.metrics t.reg in
  m.Host_metrics.rollouts_promoted <- m.Host_metrics.rollouts_promoted + 1;
  t.stage <- Promoted;
  report.Broadcast.outcomes

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
        | Some s ->
            (* back on the base epoch's tables before the replay
               renders *)
            Registry.pin_session t.reg id (Broadcast.base_epoch t.txn);
            List.map (fun e -> (id, e)) (Session.rewind s cp))
      (List.rev t.checkpoints)
  in
  t.checkpoints <- [];
  Broadcast.abort t.txn;
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

let base_epoch (t : t) = Broadcast.base_epoch t.txn
let target_epoch (t : t) = Broadcast.target_epoch t.txn

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
    (stage_to_string t.stage) (base_epoch t) (target_epoch t)
    (List.length t.canary)
    (List.length (shadow_ids t))
    (String.concat "; " (Program_diff.dirty_names (Broadcast.diff t.txn)))
    (if Broadcast.incremental t.txn then " (incremental)" else " (scratch)")
