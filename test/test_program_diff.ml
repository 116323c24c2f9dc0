(** The O(edit) broadcast's blast-radius analysis
    ({!Live_core.Program_diff}): definition classification, the two
    derived sets (recheck vs. semantic dirty), the incremental
    typechecker's agreement with the from-scratch oracle, and the
    render cache's scoped retargeting across a diffed UPDATE. *)

open Live_core
open Helpers
module Mutate = Live_conformance.Mutate
module Session = Live_runtime.Session

let core (src : string) : Program.t =
  (ok_compile src).Live_surface.Compile.core

(** A host-app-shaped source: [start] reads [w] through [f]; the cold
    definitions [c0]/[cf0] are reachable only through [aux], which
    nobody pushes — editing them must leave [start] clean. *)
let base_src =
  "global w : number = 1\n\
   global c0 : number = 7\n\
   fun f(x : number) : number {\n\
  \  return x + w\n\
   }\n\
   fun cf0(x : number) : number {\n\
  \  return x + c0\n\
   }\n\
   page aux()\n\
   init { }\n\
   render {\n\
  \  post \"aux \" ++ str(cf0(0))\n\
   }\n\
   page start()\n\
   init { }\n\
   render {\n\
  \  post \"f = \" ++ str(f(1))\n\
  \  on tapped {\n\
  \    w := w + 1\n\
  \  }\n\
   }\n"

(** Restamp [c0]'s initial value — the B13 1-line cold edit. *)
let edit_c0 (p : Program.t) (v : float) : Program.t =
  match Program.find p "c0" with
  | Some (Program.Global { name; ty; _ }) ->
      Program.with_def p (Program.Global { name; ty; init = Ast.VNum v })
  | _ -> Alcotest.fail "c0 not found"

let test_cold_edit_blast_radius () =
  let p = core base_src in
  let p' = edit_c0 p 99.0 in
  let d = Program_diff.diff ~old_prog:p p' in
  let status n = Program_diff.status_to_string (Program_diff.status d n) in
  Alcotest.(check string) "c0 body-changed" "body-changed" (status "c0");
  Alcotest.(check string) "w untouched" "unchanged" (status "w");
  (* semantic dirt flows up the reverse dependency graph and stops
     where references stop *)
  Alcotest.(check bool) "c0 dirty" true (Program_diff.is_dirty d "c0");
  Alcotest.(check bool) "cf0 dirty (reads c0)" true
    (Program_diff.is_dirty d "cf0");
  Alcotest.(check bool) "aux dirty (calls cf0)" true
    (Program_diff.is_dirty d "aux");
  Alcotest.(check bool) "start clean" false (Program_diff.is_dirty d "start");
  Alcotest.(check bool) "f clean" false (Program_diff.is_dirty d "f");
  (* the recheck set is smaller still: a body-only edit re-derives the
     edited definition alone — declared signatures cut the chain *)
  Alcotest.(check bool) "c0 rechecked" true (Program_diff.needs_recheck d "c0");
  Alcotest.(check bool) "cf0 not rechecked (c0's signature held)" false
    (Program_diff.needs_recheck d "cf0");
  Alcotest.(check int) "recheck set is the edit" 1
    (Program_diff.recheck_count d);
  (* fix-up may keep every store binding and page entry *)
  Alcotest.(check bool) "w preserved" true (Program_diff.global_preserved d "w");
  Alcotest.(check bool) "c0 preserved (same declared type)" true
    (Program_diff.global_preserved d "c0");
  Alcotest.(check bool) "start preserved" true
    (Program_diff.page_preserved d "start")

let test_sig_change_reaches_referrers () =
  let p = core base_src in
  let p' =
    Program.with_def p
      (Program.Global { name = "c0"; ty = Typ.Str; init = Ast.VStr "s" })
  in
  let d = Program_diff.diff ~old_prog:p p' in
  Alcotest.(check string) "c0 sig-changed" "sig-changed"
    (Program_diff.status_to_string (Program_diff.status d "c0"));
  Alcotest.(check bool) "direct referrer rechecked" true
    (Program_diff.needs_recheck d "cf0");
  Alcotest.(check bool) "non-referrer not rechecked" false
    (Program_diff.needs_recheck d "f");
  Alcotest.(check bool) "retyped global not preserved" false
    (Program_diff.global_preserved d "c0")

let test_add_remove () =
  let p = core base_src in
  let d_rm =
    Program_diff.diff ~old_prog:p (Program.without_def p "c0")
  in
  Alcotest.(check string) "removed" "removed"
    (Program_diff.status_to_string (Program_diff.status d_rm "c0"));
  Alcotest.(check bool) "removed is dirty" true
    (Program_diff.is_dirty d_rm "c0");
  Alcotest.(check bool) "referrer of removed rechecked" true
    (Program_diff.needs_recheck d_rm "cf0");
  let d_add =
    Program_diff.diff ~old_prog:p
      (Program.with_def p
         (Program.Global { name = "fresh"; ty = Typ.Num; init = Ast.VNum 0. }))
  in
  Alcotest.(check string) "added" "added"
    (Program_diff.status_to_string (Program_diff.status d_add "fresh"));
  Alcotest.(check bool) "addition leaves the rest clean" false
    (Program_diff.is_dirty d_add "start")

(** The incremental checker must report the {e same first error} as
    the scratch checker, not merely the same verdict. *)
let test_reject_error_identity () =
  let p = core base_src in
  (match Machine.check_program p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "base ill-typed: %s" (Machine.error_to_string e));
  (* retype c0 : string while cf0 still computes x + c0 *)
  let p' =
    Program.with_def p
      (Program.Global { name = "c0"; ty = Typ.Str; init = Ast.VStr "s" })
  in
  let d = Program_diff.diff ~old_prog:p p' in
  match (Machine.check_program p', Machine.check_program_incremental ~diff:d p')
  with
  | Error a, Error b ->
      Alcotest.(check string) "same first error" (Machine.error_to_string a)
        (Machine.error_to_string b)
  | Ok (), _ -> Alcotest.fail "scratch accepted an ill-typed program"
  | _, Ok () -> Alcotest.fail "incremental accepted an ill-typed program"

(* -- properties ---------------------------------------------------- *)

(** A random well-typed program plus a fixup-aware mutant of it, via
    the fuzzer's edit pool; [None] when the mutator found no compiling
    mutant for this seed. *)
let gen_edit_pair (seed : int) : (Program.t * Program.t) option =
  let rng = Prng.create seed in
  let base = Prng.pick rng (Mutate.base_pool ()) in
  match Mutate.mutate rng base with
  | None -> None
  | Some src' -> Some (core base, core src')

let prop_self_diff_empty =
  qcheck ~count:100 "diff p p is empty"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let src = Prng.pick rng (Mutate.base_pool ()) in
      let src =
        match Mutate.mutate rng src with None -> src | Some s -> s
      in
      let p = core src in
      let d = Program_diff.diff ~old_prog:p p in
      Program_diff.identical d
      && Program_diff.dirty_count d = 0
      && Program_diff.recheck_count d = 0)

(** Closure of the dirty set: a clean definition references only clean
    definitions — exactly the premise compiled-code reuse and cache
    retention stand on. *)
let prop_dirty_set_closed =
  qcheck ~count:150 "dirty set is closed under reverse dependencies"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      match gen_edit_pair seed with
      | None -> true
      | Some (old_prog, new_prog) ->
          let d = Program_diff.diff ~old_prog new_prog in
          List.for_all
            (fun def ->
              let name = Program.def_name def in
              Program_diff.is_dirty d name
              ||
              match def with
              | Program.Global { init; _ } -> Program_diff.value_clean d init
              | Program.Func { body; _ } -> Program_diff.expr_clean d body
              | Program.Page { init; render; _ } ->
                  Program_diff.expr_clean d init
                  && Program_diff.expr_clean d render)
            (Program.defs new_prog))

(** The tentpole's soundness property, fuzzed: on every mutated edit
    whose old program passes the scratch check, the incremental
    checker agrees with the scratch checker — verdict {e and} first
    error. *)
let prop_incremental_check_agrees =
  qcheck ~count:150 "incremental typecheck == scratch on mutants"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      match gen_edit_pair seed with
      | None -> true
      | Some (old_prog, new_prog) -> (
          match Machine.check_program old_prog with
          | Error _ -> true (* incremental premise not established *)
          | Ok () -> (
              let d = Program_diff.diff ~old_prog new_prog in
              let s = Machine.check_program new_prog in
              let i = Machine.check_program_incremental ~diff:d new_prog in
              match (s, i) with
              | Ok (), Ok () -> true
              | Error a, Error b ->
                  String.equal (Machine.error_to_string a)
                    (Machine.error_to_string b)
              | Ok (), Error e ->
                  QCheck2.Test.fail_reportf
                    "incremental rejects what scratch accepts: %s"
                    (Machine.error_to_string e)
              | Error e, Ok () ->
                  QCheck2.Test.fail_reportf
                    "incremental accepts what scratch rejects: %s"
                    (Machine.error_to_string e))))

(* -- scoped cache invalidation across a diffed UPDATE -------------- *)

let stats_exn (s : Session.t) : Render_cache.stats =
  match Session.render_cache_stats s with
  | Some st -> st
  | None -> Alcotest.fail "render cache not enabled"

let update_exn ?diff (s : Session.t) (p : Program.t) =
  match Session.update ?diff s p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" (Machine.error_to_string e)

(** Satellite fix for the wholesale flush: a cold edit broadcast with
    a diff keeps the unchanged page's memoized display, so the
    post-update re-render revalidates instead of re-evaluating — and
    the screen is byte-identical to the flushed session's. *)
let test_retarget_keeps_unchanged_pages () =
  let p = core base_src in
  let flushed = ok_machine "boot" (Session.create ~cache:true p) in
  let retargeted = ok_machine "boot" (Session.create ~cache:true p) in
  let p' = edit_c0 p 99.0 in
  let d = Program_diff.diff ~old_prog:p p' in
  update_exn flushed p';
  update_exn ~diff:d retargeted p';
  ignore (Session.screenshot flushed);
  ignore (Session.screenshot retargeted);
  let sf = stats_exn flushed and sr = stats_exn retargeted in
  Alcotest.(check bool) "diffed update retargets, never flushes" true
    (sr.Render_cache.retargets = 1 && sr.Render_cache.flushes = 0);
  Alcotest.(check bool) "undiffed update flushed" true
    (sf.Render_cache.flushes >= 1 && sf.Render_cache.retargets = 0);
  let reused st = st.Render_cache.hits + st.Render_cache.revalidations in
  if not (reused sr > reused sf) then
    Alcotest.failf
      "no hit-rate improvement: retargeted %d hits+revals vs flushed %d"
      (reused sr) (reused sf);
  Alcotest.(check string) "observationally transparent"
    (Session.screenshot flushed)
    (Session.screenshot retargeted)

(** Editing what the page actually reads must evict: the dirty page's
    display and the subtrees referencing the edited name go, and the
    session still paints exactly what a flushed one does. *)
let test_retarget_evicts_dirty () =
  let p = core base_src in
  let flushed = ok_machine "boot" (Session.create ~cache:true p) in
  let retargeted = ok_machine "boot" (Session.create ~cache:true p) in
  let p' =
    match Program.find p "w" with
    | Some (Program.Global { name; ty; _ }) ->
        Program.with_def p (Program.Global { name; ty; init = Ast.VNum 5. })
    | _ -> Alcotest.fail "w not found"
  in
  let d = Program_diff.diff ~old_prog:p p' in
  Alcotest.(check bool) "start dirty" true (Program_diff.is_dirty d "start");
  update_exn flushed p';
  update_exn ~diff:d retargeted p';
  let sr = stats_exn retargeted in
  Alcotest.(check bool) "dirty entries evicted" true
    (sr.Render_cache.evictions > 0);
  Alcotest.(check string) "observationally transparent"
    (Session.screenshot flushed)
    (Session.screenshot retargeted)

let suite =
  [
    case "cold edit: dirty set and recheck set" test_cold_edit_blast_radius;
    case "signature change reaches direct referrers"
      test_sig_change_reaches_referrers;
    case "added and removed definitions" test_add_remove;
    case "incremental reject carries the scratch error"
      test_reject_error_identity;
    prop_self_diff_empty;
    prop_dirty_set_closed;
    prop_incremental_check_agrees;
    case "diffed UPDATE keeps unchanged pages' cache"
      test_retarget_keeps_unchanged_pages;
    case "diffed UPDATE evicts the dirty subgraph" test_retarget_evicts_dirty;
  ]
