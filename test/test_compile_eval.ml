(** The closure-compiled evaluator ({!Live_core.Compile_eval}) against
    the substitution machine: the two engines must be byte-identical on
    every observable — values, stores, displays, stuck messages, and
    the dynamic effect discipline — including on randomly {e mutated}
    programs (the fuzzer's fixup-aware edit pool) and on deliberately
    stuck terms.

    Also home to the {!Live_core.Subst.rename_away} regression: stacked
    alpha-renamings under the non-[closed_arg] path must never capture,
    and the fresh-name scheme is pinned to ["x#n"]. *)

open Live_core
module Conf = Live_conformance
module SS = Ast.StringSet

(* ------------------------------------------------------------------ *)
(* Compiled = substitution on mutated programs                         *)
(* ------------------------------------------------------------------ *)

(** A random compiling mutant: a base workload pushed through a couple
    of fixup-aware edits.  [None] when a mutation chain happens not to
    produce a compiling program (the pool member itself always does). *)
let mutant_core (seed : int) : Program.t option =
  let pool = Conf.Mutate.base_pool () in
  let rng = Live_core.Prng.create seed in
  let src = pool.(Live_core.Prng.int rng (Array.length pool)) in
  let src =
    List.fold_left
      (fun s _ ->
        match Conf.Mutate.mutate rng s with Some s' -> s' | None -> s)
      src [ 1; 2 ]
  in
  match Live_surface.Compile.compile src with
  | Ok c -> Some c.Live_surface.Compile.core
  | Error _ -> None

let observe (st : State.t) : string =
  Fmt.str "store=%a display=%s" Store.pp st.State.store
    (match st.State.display with
    | State.Shown b -> Fmt.str "%a" Boxcontent.pp b
    | State.Invalid -> "<invalid>")

(** Boot, tap through three full interaction loops, then live-update to
    a second program — all under one evaluator — and return the final
    observation (or the machine error verbatim, so stuck/diverged runs
    must agree too). *)
let drive (ev : Machine.evaluator) (core : Program.t)
    (edit : Program.t option) : (string, string) result =
  let ( let* ) = Result.bind in
  let outcome =
    let* st = Machine.boot ~evaluator:ev core in
    let* st =
      List.fold_left
        (fun acc _ ->
          let* st = acc in
          match Machine.tap_first st with
          | Ok st -> Machine.run_to_stable ~evaluator:ev st
          | Error (Machine.Not_enabled _) -> Ok st (* nothing tappable *)
          | Error e -> Error e)
        (Ok st) [ 1; 2; 3 ]
    in
    match edit with
    | None -> Ok st
    | Some code ->
        let* st = Machine.update code st in
        Machine.run_to_stable ~evaluator:ev st
  in
  match outcome with
  | Ok st -> Ok (observe st)
  | Error e -> Error (Machine.error_to_string e)

let prop_mutants_agree =
  Helpers.qcheck ~count:60
    "compiled = substitution on mutated programs (boot, taps, update)"
    QCheck2.Gen.(int_bound 1_000_000_000)
    (fun seed ->
      match (mutant_core seed, mutant_core (seed + 1)) with
      | None, _ | _, None -> true
      | Some core, Some edit ->
          let a = drive Machine.Subst core (Some edit) in
          let b = drive Machine.Compiled core (Some edit) in
          if a = b then true
          else
            QCheck2.Test.fail_reportf
              "engines diverged (seed %d):\n  subst:    %s\n  compiled: %s"
              seed
              (match a with Ok s -> s | Error e -> "ERROR " ^ e)
              (match b with Ok s -> s | Error e -> "ERROR " ^ e))

(** The same equivalence through the full differential oracle: random
    conformance traces (taps, backs, mutated live edits, update storms,
    queue faults) replayed under ["machine"] (substitution reference)
    vs. ["compiled"], compared on store, stack, display and pixels
    after every step. *)
let prop_oracle_compiled_agrees =
  Helpers.qcheck ~count:25 "oracle: compiled config agrees with machine"
    QCheck2.Gen.(int_bound 1_000_000_000)
    (fun seed ->
      let trace = Conf.Engine.gen_trace ~n_events:12 ~seed () in
      match Conf.Oracle.run ~configs:[ "machine"; "compiled" ] trace with
      | Conf.Oracle.Agreed -> true
      | Conf.Oracle.Boot_failed m ->
          QCheck2.Test.fail_reportf "seed %d: boot failed: %s" seed m
      | Conf.Oracle.Diverged d ->
          QCheck2.Test.fail_reportf "seed %d: %s" seed
            (Fmt.str "%a" Conf.Oracle.pp_divergence d))

let test_compiled_in_all_configs () =
  Alcotest.(check bool)
    "\"compiled\" is a standard oracle configuration" true
    (List.mem "compiled" Conf.Oracle.all_configs)

let test_compile_cache_memoizes () =
  let core = Helpers.render_only (Helpers.num 1.0) in
  Alcotest.(check bool)
    "get is memoized by physical program identity" true
    (Compile_eval.get core == Compile_eval.get core);
  Alcotest.(check bool) "cache is populated" true (Compile_eval.cache_size () > 0)

(* ------------------------------------------------------------------ *)
(* Stuck-state and effect-discipline parity                            *)
(* ------------------------------------------------------------------ *)

let stuck_msg (f : unit -> 'a) : string option =
  try
    ignore (f ());
    None
  with Eval.Stuck m -> Some m

(** Both engines must refuse the same term with the same message. *)
let check_stuck_pure name (prog : Program.t) (e : Ast.expr) =
  let ct = Compile_eval.compile prog in
  let subst = stuck_msg (fun () -> Eval.eval_pure prog Store.empty e) in
  let compiled =
    stuck_msg (fun () -> Compile_eval.eval_pure ct Store.empty e)
  in
  Alcotest.(check (option string)) (name ^ " (message)") subst compiled;
  Alcotest.(check bool) (name ^ " (is stuck)") true (subst <> None)

let check_stuck_render name (prog : Program.t) (e : Ast.expr) =
  let ct = Compile_eval.compile prog in
  let subst = stuck_msg (fun () -> Eval.eval_render prog Store.empty e) in
  let compiled =
    stuck_msg (fun () -> Compile_eval.eval_render ct Store.empty e)
  in
  Alcotest.(check (option string)) (name ^ " (message)") subst compiled;
  Alcotest.(check bool) (name ^ " (is stuck)") true (subst <> None)

let test_stuck_parity () =
  let prog = Helpers.render_only Ast.eunit in
  check_stuck_pure "apply non-function" prog
    (Ast.App (Helpers.num 1.0, Helpers.num 2.0));
  check_stuck_pure "unbound variable" prog (Ast.Var "x");
  check_stuck_pure "projection from non-tuple" prog
    (Ast.Proj (Helpers.num 1.0, 0));
  check_stuck_pure "projection out of range" prog
    (Ast.Proj (Ast.Tuple [ Helpers.num 1.0 ], 3));
  check_stuck_pure "undefined function" prog
    (Ast.App (Ast.Fn "nope", Helpers.num 1.0))

(** The dynamic effect discipline: render code may read the store but
    never write it, touch the queue, or pop a page — under either
    engine, with the same stuck message. *)
let test_effect_discipline_parity () =
  let prog = Helpers.counter_core () in
  check_stuck_render "Set in render mode" prog
    (Ast.Set ("n", Helpers.num 1.0));
  check_stuck_render "Push in render mode" prog
    (Ast.Push ("start", Ast.eunit));
  check_stuck_render "Pop in render mode" prog Ast.Pop;
  (* and the store really was not written: eval_render returns no
     store at all (read-only by construction), so it suffices that the
     compiled engine rejects the write before producing a value *)
  let ct = Compile_eval.compile prog in
  (match
     stuck_msg (fun () ->
         Compile_eval.eval_pure ct Store.empty
           (Ast.Post (Helpers.num 1.0)))
   with
  | Some _ -> ()
  | None -> Alcotest.fail "compiled pure mode accepted a post")

(* ------------------------------------------------------------------ *)
(* Subst.rename_away: capture-freedom under stacked renamings          *)
(* ------------------------------------------------------------------ *)

(** Random terms over a small variable pool, so substituted {e open}
    values collide with binders often. *)
let gen_term : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = oneofl [ "a"; "b"; "z"; "x" ] in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof [ (var >|= fun v -> Ast.Var v); pure (Helpers.num 1.0) ]
         else
           oneof
             [
               (var >|= fun v -> Ast.Var v);
               (let* x = oneofl [ "a"; "b"; "z" ] in
                let* body = self (n / 2) in
                pure (Helpers.lam x Typ.Num body));
               map2 (fun a b -> Ast.App (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Helpers.add a b) (self (n / 2)) (self (n / 2));
               (self (n / 2) >|= fun a -> Ast.Tuple [ a ]);
             ])

(** What capture-avoiding substitution must do to the free variables:
    [fv(e[v/x]) = (fv(e) \ x) ∪ (fv(v) if x ∈ fv(e))].  A capture bug
    loses a free variable of [v] into some binder, breaking the
    equation. *)
let expected_fv (x : Ident.var) (v : Ast.value) (e : Ast.expr) : SS.t =
  let fv_e = Ast.free_vars e in
  SS.union (SS.remove x fv_e)
    (if SS.mem x fv_e then Ast.free_vars (Ast.Val v) else SS.empty)

let prop_stacked_renamings_never_capture =
  (* two open values whose free variables ("z", then "b") collide with
     the binder pool, substituted in sequence: the second substitution
     runs on a term full of the first one's alpha-renamings, which is
     exactly the stacked-renaming path *)
  let v1 = Ast.VLam ("w", Typ.Num, Ast.App (Ast.Var "w", Ast.Var "z")) in
  let v2 = Ast.VLam ("u", Typ.Num, Ast.App (Ast.Var "u", Ast.Var "b")) in
  Helpers.qcheck ~count:300
    "stacked alpha-renamings never capture (non-closed_arg path)" gen_term
    (fun e ->
      let e1 = Subst.subst_expr "x" v1 e in
      if not (SS.equal (Ast.free_vars e1) (expected_fv "x" v1 e)) then
        QCheck2.Test.fail_reportf "first substitution captured in %s"
          (Fmt.str "%a" Pretty.pp_expr e)
      else
        let e2 = Subst.subst_expr "z" v2 e1 in
        if not (SS.equal (Ast.free_vars e2) (expected_fv "z" v2 e1)) then
          QCheck2.Test.fail_reportf
            "second (stacked) substitution captured in %s"
            (Fmt.str "%a" Pretty.pp_expr e1)
        else true)

(** Pin the fresh-name scheme on a crafted nested-lambda term:
    substituting [v = λw. y] (free [y]) for [x] in [λy. x y] must
    alpha-rename the binder to ["y#n"] and rewrite its occurrence
    consistently. *)
let test_rename_away_scheme () =
  let v = Ast.VLam ("w", Typ.Num, Ast.Var "y") in
  let e =
    Ast.Val (Ast.VLam ("y", Typ.Num, Ast.App (Ast.Var "x", Ast.Var "y")))
  in
  match Subst.subst_expr "x" v e with
  | Ast.Val (Ast.VLam (y', _, Ast.App (Ast.Val v', Ast.Var y''))) ->
      Alcotest.(check bool)
        "binder was renamed away from y" true
        (not (String.equal y' "y"));
      Alcotest.(check bool)
        "fresh name follows the y#n scheme" true
        (String.length y' > 2
        && String.sub y' 0 2 = "y#"
        &&
        match int_of_string_opt (String.sub y' 2 (String.length y' - 2)) with
        | Some n -> n > 0
        | None -> false);
      Alcotest.(check string) "occurrence renamed consistently" y' y'';
      Alcotest.check Helpers.value "substituted value untouched" v v';
      Alcotest.(check bool)
        "v's free y stays free (no capture)" true
        (SS.mem "y"
           (Ast.free_vars (Subst.subst_expr "x" v e)))
  | r ->
      Alcotest.failf "unexpected substitution result: %s"
        (Fmt.str "%a" Pretty.pp_expr r)

(** The [closed_arg] fast path never renames: same term, closed value,
    binder kept verbatim. *)
let test_closed_arg_keeps_binder () =
  let e =
    Ast.Val (Ast.VLam ("y", Typ.Num, Ast.App (Ast.Var "x", Ast.Var "y")))
  in
  match Subst.subst_expr ~closed_arg:true "x" (Ast.VNum 7.0) e with
  | Ast.Val (Ast.VLam ("y", _, Ast.App (Ast.Val (Ast.VNum 7.0), Ast.Var "y")))
    ->
      ()
  | r ->
      Alcotest.failf "unexpected closed_arg result: %s"
        (Fmt.str "%a" Pretty.pp_expr r)

let suite =
  [
    prop_mutants_agree;
    prop_oracle_compiled_agrees;
    Helpers.case "compiled is a standard oracle config"
      test_compiled_in_all_configs;
    Helpers.case "compile cache memoizes by identity"
      test_compile_cache_memoizes;
    Helpers.case "stuck messages agree between engines" test_stuck_parity;
    Helpers.case "effect discipline agrees between engines"
      test_effect_discipline_parity;
    prop_stacked_renamings_never_capture;
    Helpers.case "rename_away pins the y#n scheme" test_rename_away_scheme;
    Helpers.case "closed_arg path keeps binders" test_closed_arg_keeps_binder;
  ]
