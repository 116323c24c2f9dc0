(** The conformance fuzzer itself ([lib/conformance]): the
    differential oracle must find nothing on the real system, must
    find a deliberately broken render cache and shrink it to a tiny
    witness of the same divergence class, traces must round-trip
    byte-identically, and the checked-in golden traces must replay. *)

open Live_conformance
open Helpers
module Prng = Live_core.Prng

(* -- the oracle on the real system --------------------------------- *)

let test_campaign_agrees () =
  let r = Engine.run_campaign ~iters:15 ~seed:42 () in
  Alcotest.(check int) "all iterations ran" 15 r.Engine.iters_run;
  match r.Engine.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "seed %d diverged: %a" f.Engine.trace_seed
        Oracle.pp_divergence f.Engine.divergence

let test_replay_seed_deterministic () =
  let t1 = Engine.gen_trace ~seed:12345 () in
  let t2 = Engine.gen_trace ~seed:12345 () in
  Alcotest.(check string)
    "same seed, same trace" (Ctrace.to_string t1) (Ctrace.to_string t2);
  let t3 = Engine.gen_trace ~seed:12346 () in
  Alcotest.(check bool)
    "different seed, different trace" false
    (String.equal (Ctrace.to_string t1) (Ctrace.to_string t3))

(* -- sensitivity: a broken cache must be caught -------------------- *)

let test_sabotage_caught () =
  let r =
    Engine.run_campaign ~iters:50 ~seed:42 ~sabotage:Oracle.Cache_no_flush ()
  in
  match r.Engine.failure with
  | None ->
      Alcotest.fail
        "a render cache that never flushes survived 50 random traces"
  | Some f ->
      let d = f.Engine.divergence and sd = f.Engine.shrunk_divergence in
      Alcotest.(check bool)
        "only the sabotaged configuration diverges" true
        (String.equal d.Oracle.config "cached");
      Alcotest.(check bool)
        "shrinking preserves the divergence class" true
        (Shrink.class_equal (Shrink.class_of d) (Shrink.class_of sd));
      let n = List.length f.Engine.shrunk.Ctrace.events in
      if n > 10 then
        Alcotest.failf "shrunk witness has %d events (want <= 10)" n;
      (* the minimized trace must be self-sufficient: replay it from
         its own serialization and it still fails the same way *)
      match
        Ctrace.of_string (Ctrace.to_string f.Engine.shrunk)
      with
      | Error m -> Alcotest.failf "shrunk trace does not re-parse: %s" m
      | Ok t -> (
          match Oracle.run ~sabotage:Oracle.Cache_no_flush t with
          | Oracle.Diverged d' ->
              Alcotest.(check bool)
                "replayed witness fails in the same class" true
                (Shrink.class_equal (Shrink.class_of sd) (Shrink.class_of d'))
          | _ -> Alcotest.fail "replayed witness no longer diverges")

(* -- serialization ------------------------------------------------- *)

let prop_roundtrip =
  qcheck ~count:60 "trace serialization round-trips byte-identically"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let t = Engine.gen_trace ~seed () in
      let s = Ctrace.to_string t in
      match Ctrace.of_string s with
      | Error m -> QCheck2.Test.fail_reportf "does not re-parse: %s" m
      | Ok t' ->
          if not (Ctrace.equal t t') then
            QCheck2.Test.fail_reportf "parsed trace differs structurally";
          if not (String.equal (Ctrace.to_string t') s) then
            QCheck2.Test.fail_reportf "re-serialization is not byte-identical";
          true)

let test_parse_errors () =
  let bad s =
    match Ctrace.of_string s with
    | Ok _ -> Alcotest.failf "parsed: %S" s
    | Error _ -> ()
  in
  bad "";
  bad "not-a-trace 1\nend\n";
  bad "itsalive-trace 1\nseed 0\nevents\ntap 1\nend\n";
  bad "itsalive-trace 1\nseed 0\nprogram 1 0\nevents\nend\n";
  bad "itsalive-trace 1\nseed 0\nevents\nupdate nope\nend\n"

let test_gc_pool () =
  let t =
    {
      Ctrace.seed = 0;
      pool = [| "a"; "b"; "c"; "d" |];
      events = [ Ctrace.Update 2; Ctrace.Back ];
    }
  in
  let g = Ctrace.gc_pool t in
  Alcotest.(check int) "pool shrunk" 2 (Array.length g.Ctrace.pool);
  Alcotest.(check string) "boot kept" "a" g.Ctrace.pool.(0);
  Alcotest.(check string) "target kept" "c" g.Ctrace.pool.(1);
  Alcotest.(check bool)
    "update renumbered" true
    (g.Ctrace.events = [ Ctrace.Update 1; Ctrace.Back ])

(* -- golden traces ------------------------------------------------- *)

let golden =
  [
    "cache_stale_render";
    "queue_fault_tap";
    "fixup_retype_global";
    "update_storm";
    "oedit_update_classes";
    "rollout_promote_lifecycle";
    "rollout_midcanary_rollback";
    "director_update_rebalance";
  ]

(* under [dune runtest] the cwd is the build copy of test/; under a
   bare [dune exec] it is the project root *)
let golden_path name =
  let rel = Filename.concat "traces" (name ^ ".trace") in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let load_golden name =
  match Ctrace.load (golden_path name) with
  | Ok t -> t
  | Error m -> Alcotest.failf "cannot load %s: %s" name m

let test_golden_replay () =
  List.iter
    (fun name ->
      let t = load_golden name in
      (match Oracle.run t with
      | Oracle.Agreed -> ()
      | Oracle.Diverged d ->
          Alcotest.failf "%s: %a" name Oracle.pp_divergence d
      | Oracle.Boot_failed m -> Alcotest.failf "%s: boot failed: %s" name m);
      (* golden files are stored in canonical form *)
      let ic = open_in_bin (golden_path name) in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string)
        (name ^ " is canonical") raw (Ctrace.to_string t))
    golden

let test_golden_sabotage_witness () =
  let t = load_golden "cache_stale_render" in
  Alcotest.(check bool)
    "witness is tiny" true
    (List.length t.Ctrace.events <= 10);
  match Oracle.run ~sabotage:Oracle.Cache_no_flush t with
  | Oracle.Diverged d ->
      Alcotest.(check string) "cached config" "cached" d.Oracle.config;
      Alcotest.(check string) "display field" "display" d.Oracle.field
  | Oracle.Agreed -> Alcotest.fail "sabotage not caught by the witness"
  | Oracle.Boot_failed m -> Alcotest.failf "boot failed: %s" m

(* every configuration whose session runs a render cache is sensitive
   on its own, not only ["cached"] *)
let test_sabotage_reaches_every_cache () =
  let t = load_golden "cache_stale_render" in
  List.iter
    (fun c ->
      match
        Oracle.run ~configs:[ "machine"; c ] ~sabotage:Oracle.Cache_no_flush t
      with
      | Oracle.Diverged d ->
          Alcotest.(check string) (c ^ " is named") c d.Oracle.config;
          Alcotest.(check string) (c ^ " field") "display" d.Oracle.field
      | Oracle.Agreed -> Alcotest.failf "%s: sabotage not caught" c
      | Oracle.Boot_failed m -> Alcotest.failf "%s: boot failed: %s" c m)
    [ "cached"; "host-incr"; "host-txn" ]

(* a misspelled name must not boot-fail silently into a check of
   nothing *)
let test_unknown_config_refused () =
  match
    Oracle.run ~configs:[ "machine"; "host-inc" ] (load_golden "update_storm")
  with
  | exception Invalid_argument m -> check_contains "names it" m "\"host-inc\""
  | _ -> Alcotest.fail "an unknown configuration name was accepted"

(* -- the mutator --------------------------------------------------- *)

let prop_mutants_compile =
  qcheck ~count:40 "mutated programs always compile"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let base = Mutate.base_pool () in
      match Mutate.mutate rng (Prng.pick rng base) with
      | None -> true
      | Some src -> (
          match Live_surface.Compile.compile src with
          | Ok _ -> true
          | Error e ->
              QCheck2.Test.fail_reportf "mutant does not compile: %s"
                (Live_surface.Compile.error_to_string e)))

let test_simplifications_compile () =
  Array.iter
    (fun src ->
      List.iter
        (fun src' ->
          match Live_surface.Compile.compile src' with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "simplification does not compile: %s"
                (Live_surface.Compile.error_to_string e))
        (Mutate.simplifications src))
    (Mutate.base_pool ())

(* -- the PRNG ------------------------------------------------------ *)

let test_prng_stable () =
  (* the stream is pinned: regenerating traces from checked-in seeds
     must survive compiler and stdlib upgrades *)
  let r = Prng.create 42 in
  let xs = List.init 4 (fun _ -> Prng.int r 1000) in
  Alcotest.(check (list int)) "splitmix64 stream" [ 706; 145; 929; 882 ] xs;
  let a = Prng.derive 42 0 and b = Prng.derive 42 1 in
  Alcotest.(check bool) "derived seeds differ" true (a <> b);
  Alcotest.(check int) "derive is stable" a (Prng.derive 42 0)

let suite =
  [
    slow_case "a short campaign finds no divergence" test_campaign_agrees;
    case "trace generation is deterministic" test_replay_seed_deterministic;
    slow_case "a no-flush render cache is caught and shrunk"
      test_sabotage_caught;
    prop_roundtrip;
    case "malformed traces are rejected" test_parse_errors;
    case "pool garbage collection renumbers updates" test_gc_pool;
    slow_case "golden traces replay and agree" test_golden_replay;
    case "the cache witness still bites" test_golden_sabotage_witness;
    case "the cache witness bites every render-cache configuration"
      test_sabotage_reaches_every_cache;
    case "unknown configuration names are refused" test_unknown_config_refused;
    prop_mutants_compile;
    case "shrinker simplifications compile" test_simplifications_compile;
    case "the seeded prng stream is pinned" test_prng_stable;
  ]
