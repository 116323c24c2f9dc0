(** Fuzzing the live environment through the conformance harness
    ([lib/conformance]): random seeded traces — taps, backs, live
    edits, update storms, broken edits, cache flushes and queue
    faults — are replayed through every configuration in
    {!Live_conformance.Oracle.all_configs} (the uncached machine, the
    restart baseline, and every layer stack over a fleet of one) and
    must agree on store, page stack, display tree and pixels after
    every step, with every state well-typed and stable.
    This subsumes the old ad-hoc action generator: the oracle checks
    equivalence across implementations, not just "never crashes"
    (Sec. 4.2's "the system is always live"). *)

open Live_conformance
open Live_runtime
module Prng = Live_core.Prng

(** One-line reproduction: any failing seed here replays with
    [dune exec bin/fuzz.exe -- --replay-seed N]. *)
let prop_traces_agree =
  Helpers.qcheck ~count:30 "random traces agree across all configurations"
    QCheck2.Gen.(int_bound 1_000_000_000)
    (fun seed ->
      match Engine.replay_seed seed with
      | _, Oracle.Agreed -> true
      | _, Oracle.Boot_failed m ->
          QCheck2.Test.fail_reportf "seed %d: boot failed: %s" seed m
      | _, Oracle.Diverged d ->
          QCheck2.Test.fail_reportf "seed %d: %s" seed
            (Fmt.str "%a" Oracle.pp_divergence d))

(* The oracle does not model undo (it is an editor feature, not a
   system transition), so undo keeps a dedicated fuzz.  Undo is an
   UPDATE back to the previous source: fixup may legitimately have
   dropped state on the way (the paper "just deletes" whatever no
   longer types), so we assert liveness and self-consistency, not a
   byte-identical screen. *)
let prop_undo_restores =
  Helpers.qcheck ~count:30 "undo after a random trace keeps the session live"
    QCheck2.Gen.(int_bound 1_000_000_000)
    (fun seed ->
      let trace = Engine.gen_trace ~n_events:10 ~seed () in
      let rng = Prng.create (seed + 1) in
      match Live_session.create ~width:46 trace.Ctrace.pool.(0) with
      | Error e ->
          QCheck2.Test.fail_reportf "boot: %s"
            (Live_session.error_to_string e)
      | Ok ls ->
          List.iter
            (fun (ev : Ctrace.event) ->
              match ev with
              | Ctrace.Tap { x; y } -> ignore (Live_session.tap ls ~x ~y)
              | Ctrace.Back -> ignore (Live_session.back ls)
              | Ctrace.Update i -> (
                  match Live_session.edit ls trace.Ctrace.pool.(i) with
                  | Error e ->
                      QCheck2.Test.fail_reportf "edit: %s"
                        (Live_session.error_to_string e)
                  | Ok _ ->
                      if Prng.bool rng then begin
                        match Live_session.undo ls with
                        | None ->
                            QCheck2.Test.fail_reportf
                              "no undo after a successful edit"
                        | Some (Error e) ->
                            QCheck2.Test.fail_reportf "undo: %s"
                              (Live_session.error_to_string e)
                        | Some (Ok o) ->
                            (* the outcome's screenshot is the live one *)
                            if
                              not
                                (String.equal o.Live_session.screenshot
                                   (Live_session.screenshot ls))
                            then
                              QCheck2.Test.fail_reportf
                                "undo outcome screenshot is stale"
                      end)
              | Ctrace.Broken_update -> (
                  match Live_session.edit ls Mutate.broken_source with
                  | Ok _ ->
                      QCheck2.Test.fail_reportf "broken edit accepted"
                  | Error (Live_session.Compile_error _) -> ()
                  | Error e ->
                      QCheck2.Test.fail_reportf "broken edit: %s"
                        (Live_session.error_to_string e))
              | Ctrace.Render -> ignore (Live_session.screenshot ls)
              | Ctrace.Flush_cache | Ctrace.Drop_next | Ctrace.Dup_next
              (* transactions are a host-level (fleet) notion; the
                 single-session undo fuzz has nothing to stage *)
              | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
              | Ctrace.Rollback ->
                  ())
            trace.Ctrace.events;
          (* whatever happened, the session must still be live *)
          let st = Session.state (Live_session.session ls) in
          (match Live_core.State_typing.check_state st with
          | Ok () -> ()
          | Error m -> QCheck2.Test.fail_reportf "ill-typed state: %s" m);
          true)

let suite = [ prop_traces_agree; prop_undo_restores ]
