(** The benchmark harness: one experiment per performance claim in the
    paper's discussion (see DESIGN.md's experiment index and
    EXPERIMENTS.md for measured results).

    The paper (PLDI 2013) reports no absolute numbers; its performance
    statements are qualitative (Sec. 5).  Each experiment below
    regenerates the quantitative series behind one such statement:

    - B1 [fig1_render]      — render cost vs. box count ("recreating
      the entire box tree on a redraw can become slow if there are
      many boxes on the screen");
    - B2 [update_latency]   — the cost of one live edit: compile,
      UPDATE (typecheck + fixup), re-render ("continuously
      type-checked, compiled, and executed");
    - B3 [live_vs_restart]  — edit-to-feedback latency of the live
      UPDATE transition vs. the conventional restart-and-replay cycle
      (Sec. 2's archery-vs-hose contrast), vs. trace length;
    - B4 [incremental]      — full re-layout vs. the box-tree-reuse
      cache (Sec. 5's proposed optimization), vs. page size;
    - B5 [typecheck]        — type-and-effect checking throughput vs.
      program size;
    - B6 [event_throughput] — steady-state TAP -> THUNK -> RENDER
      cycles;
    - B7 [fixup_cost]       — the Fig. 12 store fix-up vs. store size;
    - B8 [session_ablation] — the incremental caches (layout reuse,
      dependency-tracked render memoization, damage repainting) ablated
      in the full interaction loop: cached vs. uncached tap cycles (on
      synthetic rows and on the mortgage app's detail page) and
      unchanged-store re-renders;
    - B9 [fuzz_throughput]  — the conformance fuzzer's own burn rate:
      traces/sec replayed per oracle configuration and for the full
      differential run (lib/conformance);
    - B10 [host_throughput] — the multi-session live host (lib/host):
      events/sec and p50/p99 scheduler-tick latency at fleet sizes
      {1, 10, 100, 1000}, plus broadcast-update fan-out time, under
      the seeded synthetic load, the time and allocation of a tick
      with one pending tap at fleets {10, 1000}, and a 50-session
      mortgage shard's tap with and without edits and its epoch's
      render-table size against the bound;
    - B12 [compiled_eval]   — the closure-compiled evaluator
      (lib/core/compile_eval) against the substitution machine:
      speedup and allocation reduction on the hot render (B1), the
      live-edit re-render (B2), and the host fleet load (B10);
    - B13 [o_edit_broadcast] — the O(edit) fleet UPDATE: incremental
      (diff + dirty-set recheck + compile reuse + retargeted caches)
      vs. from-scratch broadcast at fleets {100, 1000, 10000};
    - B14 [staged_rollout]  — the transactional rollout lifecycle
      (lib/host/rollout): begin/canary/promote of a 2-edit change set
      vs. one flat broadcast at the same fleet sizes, digests
      cross-checked byte-identical;
    - B15 [net_e2e]         — the networked host (lib/net) over real
      Unix-domain sockets: event-sent -> delta-received p50/p99
      latency at fleets {10, 100, 1000} and the damage-delta
      bandwidth ratio vs. full-frame repaints on independent_rows;
    - B16 [shard_scaling]   — the shard director (lib/net/director):
      aggregate events/sec and e2e p50/p99 with the fleet spread over
      shards {1, 2, 4} at fleets {100, 1000}, against the undirected
      single-server baseline (the B15 shape) — the routing proxy's
      per-event tax, measured;
    - B17 [shard_scaleup]   — real scale-out: shard servers spawned as
      separate processes behind the director, clients pipelining up
      to W in-flight events per session — single vs shards {1, 2, 4}
      x window {1, 8, 32} at fleets {1k, 10k}, core count recorded;
      every B15-B17 cell is checked against an in-process shadow
      replay;
    - B18 [wire_encode]     — Wire.encode allocation: fresh-buffer
      encode vs the scratch-reusing encode_into on a Delta frame.

    Output: one table per experiment, estimated ns (or µs/ms) per
    operation from Bechamel's OLS fit against the run count, plus a
    machine-readable BENCH_RESULTS.json: a flat [entries] array in
    which every benchmark point carries a stable [id] and an explicit
    [unit] — the schema the CI artifact upload preserves so the
    cross-PR trajectory can be tracked.  Every Bechamel point also
    emits a per-run allocation figure (minor+major words, in bytes)
    under the same id with an ["/alloc"] suffix and unit ["B/run"]. *)

open Bechamel
open Toolkit

let ok_machine = function
  | Ok v -> v
  | Error e -> failwith (Live_core.Machine.error_to_string e)

let compile src =
  match Live_surface.Compile.compile src with
  | Ok c -> c
  | Error e -> failwith (Live_surface.Compile.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let quota =
  match Sys.getenv_opt "BENCH_QUOTA" with
  | Some s -> float_of_string s
  | None -> 0.5

(** Per-run heap allocation (bytes, minor + major) for every point
    measured so far, keyed by the benchmark name — accumulated across
    [run_tests] calls and emitted into BENCH_RESULTS.json as
    ["<id>/alloc"] entries with unit ["B/run"]. *)
let alloc_rows : (string * float) list ref = ref []

let find_alloc name =
  try List.assoc name !alloc_rows with Not_found -> Float.nan

let run_tests (tests : Test.t) : (string * float) list =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let instances =
    [
      Instance.monotonic_clock;
      Instance.minor_allocated;
      Instance.major_allocated;
    ]
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimates instance =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        (name, est) :: acc)
      (Analyze.all ols instance raw)
      []
  in
  let minor = estimates Instance.minor_allocated in
  let major = estimates Instance.major_allocated in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  List.iter
    (fun (name, mw) ->
      let mj =
        match List.assoc_opt name major with
        | Some v when not (Float.is_nan v) -> v
        | _ -> 0.0
      in
      let bytes =
        if Float.is_nan mw then Float.nan else (mw +. mj) *. word_bytes
      in
      alloc_rows := (name, bytes) :: !alloc_rows)
    minor;
  estimates Instance.monotonic_clock
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_time ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%8.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else Printf.sprintf "%8.2f s " (ns /. 1e9)

let header title claim =
  Printf.printf "\n=== %s ===\n%s\n%s\n" title claim (String.make 72 '-')

let pp_bytes b =
  if Float.is_nan b then "        n/a"
  else if b < 1024. then Printf.sprintf "%8.0f B " b
  else if b < 1_048_576. then Printf.sprintf "%8.1f KB" (b /. 1024.)
  else Printf.sprintf "%8.2f MB" (b /. 1_048_576.)

let print_rows rows =
  List.iter
    (fun (name, est) ->
      Printf.printf "  %-44s %s %s/run\n" name (pp_time est)
        (pp_bytes (find_alloc name)))
    rows

let run_experiment title claim (tests : Test.t) : (string * float) list =
  header title claim;
  let rows = run_tests tests in
  print_rows rows;
  rows

let find rows name = try List.assoc name rows with Not_found -> Float.nan

(* -- machine-readable output ---------------------------------------- *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** One benchmark point in the stable output schema: a globally unique
    [id] ("b3/live-update/trace=032"), an explicit [unit], a value.
    The Bechamel experiments all report "ns/run"; B10's throughput
    rows carry their own units — which is why the schema is a flat
    entries array rather than an implicit-unit tree. *)
type jentry = { id : string; unit_ : string; value : float }

let entries_of_rows (rows : (string * float) list) : jentry list =
  List.map (fun (name, est) -> { id = name; unit_ = "ns/run"; value = est }) rows

(** Write BENCH_RESULTS.json, schema v2: every entry has a stable
    [id]/[unit] pair, so the CI-uploaded artifacts are comparable
    across PRs.  NaN (no estimate) becomes null. *)
let write_json (entries : jentry list) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema_version\": 2,\n";
  Buffer.add_string buf (Printf.sprintf "  \"quota_s\": %g,\n" quota);
  Buffer.add_string buf "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"id\": \"%s\", \"unit\": \"%s\", \"value\": %s }%s\n"
           (json_escape e.id) (json_escape e.unit_)
           (if Float.is_nan e.value then "null"
            else Printf.sprintf "%.1f" e.value)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_RESULTS.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nWrote BENCH_RESULTS.json (%d entries)\n"
    (List.length entries)

(* ------------------------------------------------------------------ *)
(* B1: render scaling                                                  *)
(* ------------------------------------------------------------------ *)

let b1 () =
  let sizes = [ 10; 50; 100; 250; 500; 1000 ] in
  let tests =
    List.concat_map
      (fun n ->
        (* a mortgage start page with n listings in the model *)
        let core = Live_workloads.Mortgage.core ~listings:n () in
        let st = ok_machine (Live_core.Machine.boot core) in
        let invalid = Live_core.State.invalidate st in
        let display =
          match st.Live_core.State.display with
          | Live_core.State.Shown b -> b
          | Live_core.State.Invalid -> failwith "no display"
        in
        [
          Test.make
            ~name:(Printf.sprintf "eval-render/listings=%04d" n)
            (Staged.stage (fun () ->
                 ok_machine (Live_core.Machine.render invalid)));
          Test.make
            ~name:(Printf.sprintf "layout+paint/listings=%04d" n)
            (Staged.stage (fun () ->
                 Live_ui.Render.screenshot ~width:48 display));
        ])
      sizes
  in
  let rows =
    run_experiment "B1: fig1_render — render cost vs. box count"
      "Claim (Sec. 5): rebuilding the whole box tree on a redraw scales \
       with the number of boxes on the screen (linear here)."
      (Test.make_grouped ~name:"b1" tests)
  in
  let t100 = find rows "b1/eval-render/listings=0100" in
  let t1000 = find rows "b1/eval-render/listings=1000" in
  Printf.printf
    "  -> eval-render grows %.1fx from 100 to 1000 listings (linear ~ 10x)\n"
    (t1000 /. t100);
  rows

(* ------------------------------------------------------------------ *)
(* B2: the cost of one live edit                                       *)
(* ------------------------------------------------------------------ *)

let b2 () =
  let sizes = [ 10; 100; 500 ] in
  let tests =
    List.concat_map
      (fun n ->
        let src = Live_workloads.Mortgage.source ~listings:n () in
        let c' = compile (Live_workloads.Mortgage.source ~listings:n ~i3:true ()) in
        let st =
          ok_machine
            (Live_core.Machine.boot
               (Live_workloads.Mortgage.core ~listings:n ()))
        in
        [
          Test.make
            ~name:(Printf.sprintf "compile/listings=%03d" n)
            (Staged.stage (fun () -> compile src));
          Test.make
            ~name:(Printf.sprintf "update+fixup/listings=%03d" n)
            (Staged.stage (fun () ->
                 ok_machine
                   (Live_core.Machine.update c'.Live_surface.Compile.core st)));
          Test.make
            ~name:(Printf.sprintf "update+rerender/listings=%03d" n)
            (Staged.stage (fun () ->
                 let st' =
                   ok_machine
                     (Live_core.Machine.update c'.Live_surface.Compile.core
                        st)
                 in
                 ok_machine (Live_core.Machine.run_to_stable st')));
        ])
      sizes
  in
  let rows =
    run_experiment "B2: update_latency — one live edit, end to end"
      "Claim (Sec. 3): code is continuously type-checked, compiled and \
       executed; the edit loop stays interactive.  Re-render dominates; \
       UPDATE's typecheck+fixup is cheap."
      (Test.make_grouped ~name:"b2" tests)
  in
  let fx = find rows "b2/update+fixup/listings=500" in
  let rr = find rows "b2/update+rerender/listings=500" in
  Printf.printf
    "  -> at 500 listings, re-render is %.0fx the cost of UPDATE's \
     typecheck+fixup\n"
    (rr /. fx);
  rows

(* ------------------------------------------------------------------ *)
(* B3: live UPDATE vs. restart + trace replay                          *)
(* ------------------------------------------------------------------ *)

let b3 () =
  (* a counter app; the user has tapped T times before the edit *)
  let v1 = compile Live_workloads.Counter.source in
  let v2 =
    compile
      (Printf.sprintf "%s\n// trivial edit\n" Live_workloads.Counter.source)
  in
  let traces = [ 1; 8; 32; 128 ] in
  let tests =
    List.concat_map
      (fun t ->
        (* state after T taps, and the recorded trace *)
        let session =
          ok_machine
            (Live_runtime.Session.create ~width:24
               v1.Live_surface.Compile.core)
        in
        for _ = 1 to t do
          ignore (ok_machine (Live_runtime.Session.tap session ~x:2 ~y:1))
        done;
        let st = Live_runtime.Session.state session in
        let trace = Live_runtime.Session.trace session in
        [
          Test.make
            ~name:(Printf.sprintf "live-update/trace=%03d" t)
            (Staged.stage (fun () ->
                 let st' =
                   ok_machine
                     (Live_core.Machine.update v2.Live_surface.Compile.core
                        st)
                 in
                 ok_machine (Live_core.Machine.run_to_stable st')));
          Test.make
            ~name:(Printf.sprintf "restart+replay/trace=%03d" t)
            (Staged.stage (fun () ->
                 let fresh =
                   ok_machine
                     (Live_runtime.Session.create ~width:24
                        v2.Live_surface.Compile.core)
                 in
                 match Live_baseline.Restart_runtime.replay fresh trace with
                 | Ok o -> o
                 | Error e ->
                     failwith
                       (Live_baseline.Restart_runtime.error_to_string e)));
        ])
      traces
  in
  let rows =
    run_experiment "B3: live_vs_restart — edit-to-feedback latency"
      "Claim (Secs. 1-2): the live UPDATE transition costs one re-render \
       regardless of history; the conventional cycle replays the whole \
       interaction trace, so its cost grows with it."
      (Test.make_grouped ~name:"b3" tests)
  in
  List.iter
    (fun t ->
      let live = find rows (Printf.sprintf "b3/live-update/trace=%03d" t) in
      let restart =
        find rows (Printf.sprintf "b3/restart+replay/trace=%03d" t)
      in
      Printf.printf "  -> trace=%3d: restart/live = %.1fx\n" t
        (restart /. live))
    traces;
  rows

(* ------------------------------------------------------------------ *)
(* B4: incremental re-layout                                           *)
(* ------------------------------------------------------------------ *)

let b4 () =
  let sizes = [ 50; 200; 800 ] in
  let tests =
    List.concat_map
      (fun n ->
        let core =
          (Live_workloads.Synthetic.compile_exn
             (Live_workloads.Synthetic.flat_rows ~n))
            .Live_surface.Compile.core
        in
        let st = ok_machine (Live_core.Machine.boot core) in
        let display st =
          match st.Live_core.State.display with
          | Live_core.State.Shown b -> b
          | Live_core.State.Invalid -> failwith "no display"
        in
        let d0 = display st in
        (* a tap moved the selection highlight by one row *)
        let st1 =
          let handler = List.nth (Live_core.Boxcontent.handlers d0) 1 in
          ok_machine
            (Result.bind
               (Live_core.Machine.tap st ~handler)
               Live_core.Machine.run_to_stable)
        in
        let d1 = display st1 in
        let warm = Live_ui.Layout.create_cache () in
        ignore (Live_ui.Layout.layout_page ~cache:warm ~width:48 d0);
        [
          Test.make
            ~name:(Printf.sprintf "full-layout/rows=%03d" n)
            (Staged.stage (fun () -> Live_ui.Layout.layout_page ~width:48 d1));
          Test.make
            ~name:(Printf.sprintf "cached-layout/rows=%03d" n)
            (Staged.stage (fun () ->
                 Live_ui.Layout.layout_page ~cache:warm ~width:48 d1));
        ])
      sizes
  in
  let rows =
    run_experiment "B4: incremental_rerender — reuse of unchanged subtrees"
      "Claim (Sec. 5): 'a simple optimization where we can reuse box tree \
       elements that have not changed' pays off when few boxes change \
       between frames (here: a selection highlight moved by one row)."
      (Test.make_grouped ~name:"b4" tests)
  in
  List.iter
    (fun n ->
      let full = find rows (Printf.sprintf "b4/full-layout/rows=%03d" n) in
      let inc = find rows (Printf.sprintf "b4/cached-layout/rows=%03d" n) in
      Printf.printf "  -> rows=%3d: full/cached = %.1fx\n" n (full /. inc))
    sizes;
  rows

(* ------------------------------------------------------------------ *)
(* B5: type-and-effect checking throughput                             *)
(* ------------------------------------------------------------------ *)

let b5 () =
  let sizes = [ 10; 50; 200 ] in
  let tests =
    List.concat_map
      (fun n ->
        let src = Live_workloads.Synthetic.many_functions ~n in
        let core = (Live_workloads.Synthetic.compile_exn src).core in
        [
          Test.make
            ~name:(Printf.sprintf "surface-check/functions=%03d" n)
            (Staged.stage (fun () ->
                 match Live_surface.Compile.check src with
                 | Ok _ -> ()
                 | Error _ -> failwith "check failed"));
          Test.make
            ~name:(Printf.sprintf "core-check/functions=%03d" n)
            (Staged.stage (fun () ->
                 match Live_core.State_typing.check_code core with
                 | Ok () -> ()
                 | Error m -> failwith m));
        ])
      sizes
    @ [
        (let core = Live_workloads.Mortgage.core () in
         Test.make ~name:"core-check/mortgage"
           (Staged.stage (fun () ->
                match Live_core.State_typing.check_code core with
                | Ok () -> ()
                | Error m -> failwith m)));
      ]
  in
  run_experiment "B5: typecheck_throughput — continuous checking"
    "Claim (Sec. 3): the program is continuously type-checked as the \
     programmer edits; Fig. 10/11 checking must be far cheaper than a \
     frame."
    (Test.make_grouped ~name:"b5" tests)

(* ------------------------------------------------------------------ *)
(* B6: steady-state interaction                                        *)
(* ------------------------------------------------------------------ *)

let b6 () =
  let apps =
    [
      ("counter", Live_workloads.Counter.core ());
      ("todo", Live_workloads.Todo.core ());
      ( "flat100",
        (Live_workloads.Synthetic.compile_exn
           (Live_workloads.Synthetic.flat_rows ~n:100))
          .core );
    ]
  in
  let tests =
    List.map
      (fun (name, core) ->
        let st = ok_machine (Live_core.Machine.boot core) in
        Test.make ~name:("tap-cycle/" ^ name)
          (Staged.stage (fun () ->
               let st' = ok_machine (Live_core.Machine.tap_first st) in
               ok_machine (Live_core.Machine.run_to_stable st'))))
      apps
  in
  run_experiment "B6: event_throughput — TAP -> THUNK -> RENDER cycles"
    "Steady-state interaction cost: one user tap including handler \
     execution and the full re-render of the page."
    (Test.make_grouped ~name:"b6" tests)

(* ------------------------------------------------------------------ *)
(* B7: fix-up cost                                                     *)
(* ------------------------------------------------------------------ *)

let b7 () =
  let sizes = [ 10; 100; 1000 ] in
  let tests =
    List.concat_map
      (fun n ->
        let src = Live_workloads.Synthetic.many_globals ~n in
        let core = (Live_workloads.Synthetic.compile_exn src).core in
        let st =
          ok_machine
            (Result.bind (Live_core.Machine.boot core)
               Live_core.Machine.run_to_stable)
        in
        (* new code keeps only the first half of the globals: the rest
           of the store is deleted by S-SKIP *)
        let half = Live_workloads.Synthetic.many_globals ~n:(n / 2) in
        let half_core = (Live_workloads.Synthetic.compile_exn half).core in
        [
          Test.make
            ~name:(Printf.sprintf "fixup-keep-all/globals=%04d" n)
            (Staged.stage (fun () ->
                 Live_core.Fixup.fixup_store core st.Live_core.State.store));
          Test.make
            ~name:(Printf.sprintf "fixup-drop-half/globals=%04d" n)
            (Staged.stage (fun () ->
                 Live_core.Fixup.fixup_store half_core
                   st.Live_core.State.store));
        ])
      sizes
  in
  run_experiment "B7: fixup_cost — Fig. 12's store fix-up"
    "The UPDATE transition re-checks every store binding against the new \
     code ('it just deletes whatever does not type'); linear in the \
     store, cheap in absolute terms."
    (Test.make_grouped ~name:"b7" tests)

(* ------------------------------------------------------------------ *)
(* B8: end-to-end ablation of the incremental render pipeline          *)
(* ------------------------------------------------------------------ *)

let b8 () =
  let sizes = [ 100; 400 ] in
  let layout_tests =
    List.concat_map
      (fun n ->
        let core =
          (Live_workloads.Synthetic.compile_exn
             (Live_workloads.Synthetic.flat_rows ~n))
            .Live_surface.Compile.core
        in
        let session incremental =
          ok_machine (Live_runtime.Session.create ~width:48 ~incremental core)
        in
        let plain = session false in
        let cached = session true in
        (* warm both *)
        ignore (Live_runtime.Session.screenshot plain);
        ignore (Live_runtime.Session.screenshot cached);
        let cycle s =
          (* one full user interaction: tap a row, restabilise, repaint *)
          ignore (ok_machine (Live_runtime.Session.tap s ~x:2 ~y:7));
          ignore (Live_runtime.Session.screenshot s)
        in
        [
          Test.make
            ~name:(Printf.sprintf "session-plain/rows=%03d" n)
            (Staged.stage (fun () -> cycle plain));
          Test.make
            ~name:(Printf.sprintf "session-incremental/rows=%03d" n)
            (Staged.stage (fun () -> cycle cached));
        ])
      sizes
  in
  (* the render memoization cache (dependency-tracked; see
     Render_cache): (a) re-render with an unchanged store — the
     whole-display fast path revalidates without evaluating; (b) the
     full TAP -> THUNK -> RENDER loop on independent_rows, where a tap
     dirties one row's read set and the other rows splice from the
     cache, with damage-tracked repainting downstream *)
  let rerender_tests =
    List.concat_map
      (fun n ->
        let core =
          (Live_workloads.Synthetic.compile_exn
             (Live_workloads.Synthetic.flat_rows ~n))
            .Live_surface.Compile.core
        in
        let cache = Live_core.Render_cache.create () in
        let st = ok_machine (Live_core.Machine.boot ~cache core) in
        let invalid = Live_core.State.invalidate st in
        [
          Test.make
            ~name:(Printf.sprintf "rerender-unchanged-plain/rows=%03d" n)
            (Staged.stage (fun () ->
                 ok_machine (Live_core.Machine.render invalid)));
          Test.make
            ~name:(Printf.sprintf "rerender-unchanged-cached/rows=%03d" n)
            (Staged.stage (fun () ->
                 ok_machine (Live_core.Machine.render ~cache invalid)));
        ])
      sizes
  in
  let tap_tests =
    List.concat_map
      (fun n ->
        let core =
          (Live_workloads.Synthetic.compile_exn
             (Live_workloads.Synthetic.independent_rows ~n))
            .Live_surface.Compile.core
        in
        (* ablate the whole incremental pipeline (render memoization +
           previous-frame layout reuse + damage repainting) vs. none *)
        let session cache =
          ok_machine (Live_runtime.Session.create ~width:48 ~cache core)
        in
        let plain = session false in
        let cached = session true in
        ignore (Live_runtime.Session.screenshot plain);
        ignore (Live_runtime.Session.screenshot cached);
        let cycle s =
          ignore (ok_machine (Live_runtime.Session.tap s ~x:2 ~y:7));
          ignore (Live_runtime.Session.screenshot s)
        in
        [
          Test.make
            ~name:(Printf.sprintf "tap-cycle-plain/rows=%03d" n)
            (Staged.stage (fun () -> cycle plain));
          Test.make
            ~name:(Printf.sprintf "tap-cycle-cached/rows=%03d" n)
            (Staged.stage (fun () -> cycle cached));
        ])
      sizes
  in
  (* the paper's app, where painting cost the most: open listing 0, then
     each cycle taps the APR control (the amortization table re-renders
     below it) and takes a screenshot *)
  let mortgage_tests =
    let core = Live_workloads.Mortgage.core () in
    let tap_row s pred =
      let root = Option.get (Live_runtime.Session.layout s) in
      let rows = Live_runtime.Session.rows s in
      let rec find y =
        if y >= Array.length rows then failwith "b8: no tap target"
        else
          match pred rows.(y) with
          | Some x when Live_ui.Layout.handler_at root ~x ~y <> None -> (x, y)
          | _ -> find (y + 1)
      in
      let x, y = find 0 in
      fun () -> ignore (ok_machine (Live_runtime.Session.tap s ~x ~y))
    in
    let apr row =
      let n = String.length row in
      let rec go i =
        if i + 4 > n then None
        else if String.sub row i 4 = "apr:" then Some i
        else go (i + 1)
      in
      go 0
    in
    let session cache =
      let s = ok_machine (Live_runtime.Session.create ~width:48 ~cache core) in
      (tap_row s (fun _ -> Some 2)) ();
      let tap_apr = tap_row s apr in
      ignore (Live_runtime.Session.screenshot s);
      fun () ->
        tap_apr ();
        ignore (Live_runtime.Session.screenshot s)
    in
    [
      Test.make ~name:"tap-cycle-plain/mortgage"
        (Staged.stage (session false));
      Test.make ~name:"tap-cycle-cached/mortgage"
        (Staged.stage (session true));
    ]
  in
  let rows =
    run_experiment
      "B8: session ablation — the caches in the full interaction loop"
      "End-to-end effect of the incremental pipeline: the Sec. 5 layout \
       cache on a whole interaction; the dependency-tracked render cache \
       on an unchanged-store re-render (revalidation, no evaluation) and \
       on the tap loop (one dirty row re-evaluated, the rest spliced)."
      (Test.make_grouped ~name:"b8"
         (layout_tests @ rerender_tests @ tap_tests @ mortgage_tests))
  in
  List.iter
    (fun n ->
      let plain = find rows (Printf.sprintf "b8/session-plain/rows=%03d" n) in
      let inc =
        find rows (Printf.sprintf "b8/session-incremental/rows=%03d" n)
      in
      Printf.printf "  -> rows=%3d: plain/incremental = %.2fx\n" n
        (plain /. inc))
    sizes;
  List.iter
    (fun n ->
      let plain =
        find rows (Printf.sprintf "b8/rerender-unchanged-plain/rows=%03d" n)
      in
      let cached =
        find rows (Printf.sprintf "b8/rerender-unchanged-cached/rows=%03d" n)
      in
      Printf.printf
        "  -> rows=%3d: unchanged-store re-render plain/cached = %.1fx\n" n
        (plain /. cached))
    sizes;
  List.iter
    (fun n ->
      let plain =
        find rows (Printf.sprintf "b8/tap-cycle-plain/rows=%03d" n)
      in
      let cached =
        find rows (Printf.sprintf "b8/tap-cycle-cached/rows=%03d" n)
      in
      Printf.printf "  -> rows=%3d: tap cycle plain/cached = %.2fx\n" n
        (plain /. cached))
    sizes;
  Printf.printf "  -> mortgage: tap cycle plain/cached = %.2fx\n"
    (find rows "b8/tap-cycle-plain/mortgage"
    /. find rows "b8/tap-cycle-cached/mortgage");
  rows

(* ------------------------------------------------------------------ *)
(* B9: conformance fuzzing throughput                                  *)
(* ------------------------------------------------------------------ *)

let b9 () =
  let open Live_conformance in
  (* a fixed, representative trace: regenerable forever from its seed *)
  let trace = Engine.gen_trace ~n_events:16 ~seed:42 () in
  let n_events = List.length trace.Ctrace.events in
  let replay configs () =
    match Oracle.run ~configs trace with
    | Oracle.Agreed -> ()
    | Oracle.Diverged _ | Oracle.Boot_failed _ -> failwith "trace must agree"
  in
  let tests =
    List.map
      (fun name ->
        Test.make
          ~name:(Printf.sprintf "replay/%s" name)
          (Staged.stage (replay [ name ])))
      Oracle.all_configs
    @ [
        Test.make ~name:"replay/differential-all"
          (Staged.stage (replay Oracle.all_configs));
        Test.make ~name:"generate"
          (Staged.stage (fun () ->
               ignore (Engine.gen_trace ~n_events:16 ~seed:42 ())));
      ]
  in
  let rows =
    run_experiment "B9: fuzz_throughput — the conformance oracle's own cost"
      (Printf.sprintf
         "How fast the differential fuzzer burns traces: one 16-event trace \
          replayed through each configuration alone (observation included), \
          the full differential run over all %d, and trace generation \
          itself."
         (List.length Oracle.all_configs))
      (Test.make_grouped ~name:"b9" tests)
  in
  List.iter
    (fun name ->
      let ns = find rows (Printf.sprintf "b9/replay/%s" name) in
      if not (Float.is_nan ns) then
        Printf.printf "  -> %-16s %8.1f traces/s (%d events each)\n" name
          (1e9 /. ns) n_events)
    (Oracle.all_configs @ [ "differential-all" ]);
  rows

(* ------------------------------------------------------------------ *)
(* B10: multi-session host throughput                                  *)
(* ------------------------------------------------------------------ *)

(** B10 is not a Bechamel experiment: a host run is a long stateful
    loop (seeded event streams, a mid-stream broadcast), so we measure
    one deterministic run per fleet size wall-clock and read the
    latency percentiles straight out of {!Live_host.Host_metrics}. *)
let b10 () : jentry list =
  let module H = Live_host in
  let module Prng = Live_core.Prng in
  let fleet_sizes = [ 1; 10; 100; 1000 ] in
  let rows_n = 6 in
  let app version =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~rows:rows_n ~version ()))
      .Live_surface.Compile.core
  in
  header "B10: host_throughput — the multi-session live host"
    "The lib/host subsystem under seeded synthetic load: events/sec, \
     p50/p99 scheduler-tick latency, and broadcast-update fan-out time \
     vs. fleet size; then one-pending ticks, whose cost must not grow \
     with the fleet.";
  List.concat_map
    (fun k ->
      (* same total event budget per fleet size, so runs stay ~equal *)
      let rounds = max 4 (4000 / k) in
      let cfg = { H.Registry.default_config with H.Registry.width = 32 } in
      let reg = H.Registry.create ~config:cfg (app 0) in
      (match H.Registry.spawn_many reg k with
      | Ok _ -> ()
      | Error e -> failwith (Live_core.Machine.error_to_string e));
      let sched = H.Scheduler.create ~batch:8 reg in
      let ids = Array.of_list (H.Registry.ids reg) in
      let rngs = Array.map (fun id -> Prng.create (Prng.derive 42 id)) ids in
      let broadcast_round = rounds / 2 in
      let t0 = H.Host_metrics.now () in
      for round = 0 to rounds - 1 do
        Array.iteri
          (fun i id ->
            let rng = rngs.(i) in
            let ev =
              if Prng.int rng 10 = 0 then H.Registry.Back
              else
                H.Registry.Tap
                  { x = Prng.int rng 32; y = 1 + Prng.int rng rows_n }
            in
            ignore (H.Registry.offer reg id ev))
          ids;
        ignore (H.Scheduler.tick sched);
        if round = broadcast_round then
          match H.Broadcast.update reg (app 1) with
          | Ok _ -> ()
          | Error e -> failwith (Live_core.Machine.error_to_string e)
      done;
      (match H.Scheduler.drain sched with
      | Ok _ -> ()
      | Error m -> failwith m);
      let dt = H.Host_metrics.now () -. t0 in
      let s = H.Registry.snapshot reg in
      let processed = s.H.Host_metrics.s_events_processed in
      let eps = float_of_int processed /. dt in
      let p50 = s.H.Host_metrics.tick_p50_ns in
      let p99 = s.H.Host_metrics.tick_p99_ns in
      let fanout = s.H.Host_metrics.fanout_last_ns in
      Printf.printf
        "  fleet=%4d  %9.0f events/s  tick p50 %s  p99 %s  fan-out %s\n" k
        eps (pp_time p50) (pp_time p99) (pp_time fanout);
      [
        {
          id = Printf.sprintf "b10/events-per-sec/fleet=%04d" k;
          unit_ = "events/s";
          value = eps;
        };
        {
          id = Printf.sprintf "b10/tick-p50/fleet=%04d" k;
          unit_ = "ns";
          value = p50;
        };
        {
          id = Printf.sprintf "b10/tick-p99/fleet=%04d" k;
          unit_ = "ns";
          value = p99;
        };
        {
          id = Printf.sprintf "b10/update-fanout/fleet=%04d" k;
          unit_ = "ns";
          value = fanout;
        };
      ])
    fleet_sizes

(** B10's sparse-tick rows time the opposite regime, a served shard's
    usual step: one tick with one pending tap, on a fleet of 10 and of
    1,000, on the livebench session config (16 rows, width 48, render
    cache on, batch 8).  Both fleets replay the same taps on their
    first ten sessions, so only the idle sessions differ; the p50 and
    the minor words per tick show whether a tick's cost follows its
    pending sessions or the fleet size. *)
let b10_sparse () : jentry list =
  let module H = Live_host in
  let module Prng = Live_core.Prng in
  let rows_n = 16 and width = 48 and warmup = 50 and taps = 400 in
  let app =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~rows:rows_n ~version:0 ()))
      .Live_surface.Compile.core
  in
  let measure k =
    let cfg =
      { H.Registry.default_config with H.Registry.width; cache = true }
    in
    let reg = H.Registry.create ~config:cfg app in
    (match H.Registry.spawn_many reg k with
    | Ok _ -> ()
    | Error e -> failwith (Live_core.Machine.error_to_string e));
    let sched = H.Scheduler.create ~batch:8 reg in
    let rng = Prng.create 1010 in
    let lat = Array.make taps 0. and words = ref 0. in
    for i = -warmup to taps - 1 do
      let id = H.Registry.id_at reg (Prng.int rng 10) in
      let x = Prng.int rng width and y = 1 + Prng.int rng rows_n in
      ignore (H.Registry.offer reg id (H.Registry.Tap { x; y }));
      let w0 = Gc.minor_words () in
      let r = H.Scheduler.tick sched in
      let w1 = Gc.minor_words () in
      if r.H.Scheduler.processed <> 1 then
        failwith "b10 sparse tick: expected one event";
      if i >= 0 then begin
        lat.(i) <- r.H.Scheduler.latency_ns;
        words := !words +. (w1 -. w0)
      end
    done;
    Array.sort Float.compare lat;
    let p50 = lat.(taps / 2) and alloc = !words /. float_of_int taps in
    Printf.printf
      "  fleet=%4d  one-pending tick p50 %s  %8.0f minor words/tick\n" k
      (pp_time p50) alloc;
    (p50, alloc)
  in
  let t_small, a_small = measure 10 in
  let t_large, a_large = measure 1000 in
  Printf.printf
    "  -> one-pending tick at fleet 1000 vs 10: %.2fx time, %.2fx allocation\n"
    (t_large /. t_small) (a_large /. a_small);
  List.concat_map
    (fun (k, p50, alloc) ->
      [
        {
          id = Printf.sprintf "b10/sparse-tick/fleet=%04d" k;
          unit_ = "ns";
          value = p50;
        };
        {
          id = Printf.sprintf "b10/sparse-tick-alloc/fleet=%04d" k;
          unit_ = "words";
          value = alloc;
        };
      ])
    [ (10, t_small, a_small); (1000, t_large, a_large) ]

(** B10's epoch-cache rows: a shard of 50 mortgage sessions on the
    livebench session config (width 48, render cache on, batch 8),
    each browsing as livebench's users do — open a listing, tap its
    term or APR control 1-6 times, go back — one tap per tick.  The
    saturation pattern runs 400 taps per session with no edit; the
    interactive pattern runs 200 taps per session, then 1,200 taps on
    random sessions with an I2/I3 toggle broadcast every 12 taps.  Each
    reports the time and allocation of a tap (offer, tick: tap, render,
    paint), edits excluded; the saturation run also reports the most
    entries the epoch's render tables held, against their bound. *)
let b10_epoch () : jentry list =
  let module H = Live_host in
  let module Prng = Live_core.Prng in
  let module Layout = Live_ui.Layout in
  let k = 50 and width = 48 in
  let program v =
    Live_workloads.Mortgage.core ~listings:12 ~i2:(v land 1 = 1)
      ~i3:(v land 2 = 2) ()
  in
  (* one cell of each tappable box, in reading order *)
  let targets (s : Live_runtime.Session.t) : (int * int) array =
    match Live_runtime.Session.layout s with
    | None -> [||]
    | Some node ->
        let groups = ref [] in
        for y = 0 to Layout.total_height node - 1 do
          for x = 0 to width - 1 do
            match Layout.handler_at node ~x ~y with
            | None -> ()
            | Some v -> (
                match List.assq_opt v !groups with
                | Some cells -> cells := (x, y) :: !cells
                | None -> groups := (v, ref [ (x, y) ]) :: !groups)
          done
        done;
        List.rev_map
          (fun (_, cells) ->
            let a = Array.of_list (List.rev !cells) in
            a.(Array.length a / 2))
          !groups
        |> Array.of_list
  in
  let listings, controls =
    let s = ok_machine (Live_runtime.Session.create ~width (program 0)) in
    let listings = targets s in
    ( listings,
      Array.map
        (fun (x, y) ->
          ignore (ok_machine (Live_runtime.Session.tap s ~x ~y));
          let d = targets s in
          ok_machine (Live_runtime.Session.back s);
          d)
        listings )
  in
  let fleet () =
    let cfg =
      { H.Registry.default_config with H.Registry.width; cache = true }
    in
    let reg = H.Registry.create ~config:cfg (program 0) in
    ignore (ok_machine (H.Registry.spawn_many reg k));
    let sched = H.Scheduler.create ~batch:8 reg in
    (* per session: its generator and the control taps left on the
       open listing ([-1]: on the start page) *)
    let users = Array.init k (fun i -> (Prng.create (Prng.derive 77 i), ref (-1, 0))) in
    let tap i =
      let rng, page = users.(i) in
      let ev =
        match !page with
        | -1, _ ->
            let l = Prng.int rng (Array.length listings) in
            page := (l, 1 + Prng.int rng 6);
            let x, y = listings.(l) in
            H.Registry.Tap { x; y }
        | _, 0 ->
            page := (-1, 0);
            H.Registry.Back
        | l, left ->
            page := (l, left - 1);
            let x, y = controls.(l).(Prng.int rng 2) in
            H.Registry.Tap { x; y }
      in
      ignore (H.Registry.offer reg (H.Registry.id_at reg i) ev);
      if (H.Scheduler.tick sched).H.Scheduler.processed <> 1 then
        failwith "b10 epoch cache: expected one event"
    in
    (reg, tap)
  in
  let allocated () =
    let st = Gc.quick_stat () in
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  header "B10: epoch_cache — one render cache per code epoch"
    "50 mortgage sessions on one shard share the epoch's render tables: \
     the time and allocation of a tap with no edits (saturation) and \
     with an edit every 12 taps (interactive), and the most entries \
     the tables held over 20,000 taps, against their bound.";
  (* saturation *)
  let reg, tap = fleet () in
  let handle =
    Option.get
      (Live_runtime.Session.render_cache_handle
         (Option.get (H.Registry.session reg (H.Registry.id_at reg 0))))
  in
  let rounds = 400 and peak = ref 0 in
  let w0 = allocated () and t0 = H.Host_metrics.now () in
  for _ = 1 to rounds do
    for i = 0 to k - 1 do
      tap i;
      peak := max !peak (Live_core.Render_cache.size handle)
    done
  done;
  let n = float_of_int (rounds * k) in
  let sat_ns = (H.Host_metrics.now () -. t0) *. 1e9 /. n in
  let sat_b = (allocated () -. w0) *. word_bytes /. n in
  (* interactive *)
  let reg, tap = fleet () in
  for _ = 1 to 200 do
    for i = 0 to k - 1 do
      tap i
    done
  done;
  let rng = Prng.create 4242 and taps = 1200 and version = ref 0 in
  let busy = ref 0. and words = ref 0. in
  for j = 1 to taps do
    let i = Prng.int rng k in
    let w0 = allocated () and t0 = H.Host_metrics.now () in
    tap i;
    busy := !busy +. (H.Host_metrics.now () -. t0);
    words := !words +. (allocated () -. w0);
    if j mod 12 = 0 then begin
      version := !version lxor if j mod 24 = 0 then 1 else 2;
      ignore (ok_machine (H.Broadcast.update reg (program !version)))
    end
  done;
  let n = float_of_int taps in
  let int_ns = !busy *. 1e9 /. n and int_b = !words *. word_bytes /. n in
  let bound = Live_core.Render_cache.bound in
  Printf.printf "  saturation   %s/tap %s/tap\n" (pp_time sat_ns) (pp_bytes sat_b);
  Printf.printf "  interactive  %s/tap %s/tap\n" (pp_time int_ns) (pp_bytes int_b);
  Printf.printf "  -> epoch tables peaked at %d entries (bound %d)\n" !peak bound;
  [
    { id = "b10/epoch-cache/tap-saturation"; unit_ = "ns"; value = sat_ns };
    { id = "b10/epoch-cache/tap-saturation/alloc"; unit_ = "B/run"; value = sat_b };
    { id = "b10/epoch-cache/tap-interactive"; unit_ = "ns"; value = int_ns };
    { id = "b10/epoch-cache/tap-interactive/alloc"; unit_ = "B/run"; value = int_b };
    { id = "b10/epoch-cache/entries-peak"; unit_ = "count"; value = float_of_int !peak };
    { id = "b10/epoch-cache/entries-bound"; unit_ = "count"; value = float_of_int bound };
  ]

(* ------------------------------------------------------------------ *)
(* B12: the closure-compiled evaluator vs. the substitution machine    *)
(* ------------------------------------------------------------------ *)

(** B12 measures the tentpole of lib/core/compile_eval: the same
    workloads executed by both engines.  The Bechamel half re-runs B1's
    hot render and B2's live-edit re-render at 500 listings under each
    [Machine.evaluator]; the wall-clock half replays B10's fleet=100
    host load under each {!Live_host.Registry.config} evaluator.  The
    conformance oracle's ["compiled"] configuration guarantees the two
    engines produce byte-identical states, so the speedup and
    allocation-reduction ratios compare like with like. *)
let b12 () : jentry list =
  let module M = Live_core.Machine in
  let n = 500 in
  let core = Live_workloads.Mortgage.core ~listings:n () in
  let st = ok_machine (M.boot core) in
  let invalid = Live_core.State.invalidate st in
  let c' = compile (Live_workloads.Mortgage.source ~listings:n ~i3:true ()) in
  let upd evaluator () =
    let st' = ok_machine (M.update c'.Live_surface.Compile.core st) in
    ok_machine (M.run_to_stable ~evaluator st')
  in
  let point what ev =
    Printf.sprintf "%s/%s/listings=%03d" what
      (match ev with M.Subst -> "subst" | M.Compiled -> "compiled")
      n
  in
  let tests =
    List.concat_map
      (fun ev ->
        [
          Test.make
            ~name:(point "eval-render" ev)
            (Staged.stage (fun () ->
                 ok_machine (M.render ~evaluator:ev invalid)));
          Test.make ~name:(point "update+rerender" ev) (Staged.stage (upd ev));
        ])
      [ M.Subst; M.Compiled ]
  in
  let rows =
    run_experiment
      "B12: compiled_eval — closure compilation vs. substitution"
      "The compile-once evaluator resolves variables to environment \
       slots at compile time, so the run-time pays no Subst.beta copy \
       and no free-variable scan; verified byte-identical against the \
       substitution machine by the conformance oracle."
      (Test.make_grouped ~name:"b12" tests)
  in
  (* the fleet under each engine: B10's load, fleet=100 *)
  let host_eps (ev : M.evaluator) : float =
    let module H = Live_host in
    let module Prng = Live_core.Prng in
    let rows_n = 6 in
    let k = 100 in
    let rounds = 40 in
    let app =
      (Live_workloads.Synthetic.compile_exn
         (Live_workloads.Synthetic.host_app ~rows:rows_n ~version:0 ()))
        .Live_surface.Compile.core
    in
    let cfg =
      {
        H.Registry.default_config with
        H.Registry.width = 32;
        evaluator = ev;
      }
    in
    let reg = H.Registry.create ~config:cfg app in
    (match H.Registry.spawn_many reg k with
    | Ok _ -> ()
    | Error e -> failwith (Live_core.Machine.error_to_string e));
    let sched = H.Scheduler.create ~batch:8 reg in
    let ids = Array.of_list (H.Registry.ids reg) in
    let rngs = Array.map (fun id -> Prng.create (Prng.derive 42 id)) ids in
    let t0 = H.Host_metrics.now () in
    for _round = 0 to rounds - 1 do
      Array.iteri
        (fun i id ->
          let rng = rngs.(i) in
          let e =
            if Prng.int rng 10 = 0 then H.Registry.Back
            else
              H.Registry.Tap { x = Prng.int rng 32; y = 1 + Prng.int rng rows_n }
          in
          ignore (H.Registry.offer reg id e))
        ids;
      ignore (H.Scheduler.tick sched)
    done;
    (match H.Scheduler.drain sched with
    | Ok _ -> ()
    | Error m -> failwith m);
    let dt = H.Host_metrics.now () -. t0 in
    let s = H.Registry.snapshot reg in
    float_of_int s.H.Host_metrics.s_events_processed /. dt
  in
  let eps_subst = host_eps M.Subst in
  let eps_compiled = host_eps M.Compiled in
  let ratio a b =
    if Float.is_nan a || Float.is_nan b || b = 0.0 then Float.nan else a /. b
  in
  let summary what =
    let s = find rows ("b12/" ^ point what M.Subst) in
    let c = find rows ("b12/" ^ point what M.Compiled) in
    let sa = find_alloc ("b12/" ^ point what M.Subst) in
    let ca = find_alloc ("b12/" ^ point what M.Compiled) in
    Printf.printf
      "  -> %-16s compiled is %.2fx faster, allocates %.1fx less\n" what
      (ratio s c) (ratio sa ca);
    [
      {
        id = Printf.sprintf "b12/speedup/%s/listings=%03d" what n;
        unit_ = "ratio";
        value = ratio s c;
      };
      {
        id = Printf.sprintf "b12/alloc-reduction/%s/listings=%03d" what n;
        unit_ = "ratio";
        value = ratio sa ca;
      };
    ]
  in
  let summaries =
    List.concat_map summary [ "eval-render"; "update+rerender" ]
  in
  Printf.printf
    "  -> host fleet=100: %.0f events/s (subst) vs %.0f events/s (compiled) \
     = %.2fx\n"
    eps_subst eps_compiled
    (ratio eps_compiled eps_subst);
  entries_of_rows rows @ summaries
  @ [
      {
        id = "b12/host-events-per-sec/subst/fleet=0100";
        unit_ = "events/s";
        value = eps_subst;
      };
      {
        id = "b12/host-events-per-sec/compiled/fleet=0100";
        unit_ = "events/s";
        value = eps_compiled;
      };
      {
        id = "b12/speedup/host/fleet=0100";
        unit_ = "ratio";
        value = ratio eps_compiled eps_subst;
      };
    ]

(* ------------------------------------------------------------------ *)
(* B13: O(edit) broadcast — incremental vs. from-scratch UPDATE        *)
(* ------------------------------------------------------------------ *)

(** B13's and B14's cells each run their 4-edit pass {!passes} times
    on one fleet and report the median pass, per edit: a single pass
    swung 2x between runs of one binary. *)
let passes = 5

let edits_per_pass = 4

(* [pass p] runs pass [p] (from 0); the median of its per-edit times *)
let median_pass (pass : int -> unit) : float =
  let times =
    Array.init passes (fun p ->
        let t0 = Live_host.Host_metrics.now () in
        pass p;
        (Live_host.Host_metrics.now () -. t0)
        *. 1e9
        /. float_of_int edits_per_pass)
  in
  Array.sort Float.compare times;
  times.(passes / 2)

(** B13 measures the O(edit) broadcast pipeline end to end: a 1-line
    structural edit of a cold definition (one [Program.with_def] on a
    global the start page never reads) broadcast to fleets of 100 /
    1000 / 10000 cached sessions, once through the from-scratch path
    ([typecheck_mode = Scratch]: whole-program recheck, full
    recompile, wholesale cache flush, full per-session re-render) and
    once through the incremental path (diff + dirty-set recheck,
    compile reuse, the epoch's render tables retargeted once).  The
    two fleets replay the identical edit sequence and must land on
    byte-identical digests — the speedup compares like with like.
    Each cell is the median of {!passes} passes. *)
let b13 () : jentry list =
  let module H = Live_host in
  let module P = Live_core.Program in
  let fleet_sizes = [ 100; 1000; 10000 ] in
  let rows_n = 6 in
  let cold = 32 in
  let edits = edits_per_pass in
  let app =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~cold ~rows:rows_n ~version:0 ()))
      .Live_surface.Compile.core
  in
  (* the 1-line edit: restamp cold global c0's initial value *)
  let edit (prog : P.t) ~(stamp : int) : P.t =
    match P.find prog "c0" with
    | Some (P.Global { name; ty; _ }) ->
        P.with_def prog
          (P.Global
             { name; ty; init = Live_core.Ast.VNum (float_of_int stamp) })
    | _ -> failwith "B13: cold global c0 not found"
  in
  header "B13: o_edit_broadcast — incremental vs. from-scratch UPDATE"
    "A 1-line edit of a cold definition broadcast fleet-wide: the \
     incremental path (program diff, dirty-set typecheck, compile \
     reuse, retargeted render caches) vs. the from-scratch path \
     (whole-program recheck, full recompile, wholesale cache flush), \
     with the two fleets' digests cross-checked byte-identical.";
  let run (mode : H.Broadcast.typecheck_mode) (k : int) : float * string =
    let cfg =
      {
        H.Registry.default_config with
        H.Registry.width = 32;
        cache = true;
        evaluator = Live_core.Machine.Compiled;
      }
    in
    let reg = H.Registry.create ~config:cfg app in
    (match H.Registry.spawn_many reg k with
    | Ok _ -> ()
    | Error e -> failwith (Live_core.Machine.error_to_string e));
    let broadcast stamp =
      let prog = edit (H.Registry.program reg) ~stamp in
      match H.Broadcast.update ~typecheck:mode reg prog with
      | Ok _ -> ()
      | Error e -> failwith (Live_core.Machine.error_to_string e)
    in
    (* warm-up broadcast: the boot program was never typechecked, so
       the first UPDATE is from-scratch in every mode; after it the
       incremental premise (old code checked) holds *)
    broadcast 1000;
    let per_edit_ns =
      median_pass (fun pass ->
          for e = 1 to edits do
            broadcast ((pass * edits) + e)
          done)
    in
    (per_edit_ns, H.Registry.digest reg)
  in
  List.concat_map
    (fun k ->
      let scratch_ns, scratch_digest = run H.Broadcast.Scratch k in
      let incr_ns, incr_digest = run H.Broadcast.Incremental k in
      if not (String.equal scratch_digest incr_digest) then
        failwith
          (Printf.sprintf
             "B13: fleet=%d digest mismatch — incremental broadcast \
              diverged from from-scratch"
             k);
      let speedup = scratch_ns /. incr_ns in
      Printf.printf
        "  fleet=%5d  scratch %s/edit  incremental %s/edit  speedup %.1fx  \
         digest %s\n"
        k (pp_time scratch_ns) (pp_time incr_ns) speedup
        (String.sub scratch_digest 0 8);
      if k = 10000 && speedup < 5.0 then
        Printf.printf
          "  WARNING: fleet=10000 speedup %.1fx below the 5x target\n" speedup;
      [
        {
          id = Printf.sprintf "b13/broadcast-scratch/fleet=%05d" k;
          unit_ = "ns";
          value = scratch_ns;
        };
        {
          id = Printf.sprintf "b13/broadcast-incremental/fleet=%05d" k;
          unit_ = "ns";
          value = incr_ns;
        };
        {
          id = Printf.sprintf "b13/speedup/fleet=%05d" k;
          unit_ = "ratio";
          value = speedup;
        };
      ])
    fleet_sizes

(* ------------------------------------------------------------------ *)
(* B14: staged rollout — begin/canary/promote vs. one flat broadcast   *)
(* ------------------------------------------------------------------ *)

(** B14 prices what staging adds to the edit transaction
    (lib/host/rollout over lib/host/broadcast): the same 2-edit change
    set delivered to fleets of 100 / 1000 / 10000 cached sessions
    either as one flat incremental broadcast or as a full staged
    lifecycle — [Rollout.begin_] (the broadcast's prepare plus a 10%
    canary cohort drawn), [Rollout.canary] (cohort checkpointed and
    migrated), then [Rollout.promote] (the broadcast's commit migrates
    the shadow cohort, then the checkpoints are committed).  Both
    fleets must land on byte-identical digests — the promote ≡
    one-shot-broadcast soundness statement, priced rather than merely
    asserted.  Both paths run the one fan-out, so the overhead ratio
    prices only the cohort draw and the per-canary checkpoints; the
    change set is still diffed, typechecked and compiled exactly
    once.  Each cell is the median of {!passes} passes. *)
let b14 () : jentry list =
  let module H = Live_host in
  let module P = Live_core.Program in
  let fleet_sizes = [ 100; 1000; 10000 ] in
  let rows_n = 6 in
  let cold = 32 in
  let edits = edits_per_pass in
  let app =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~cold ~rows:rows_n ~version:0 ()))
      .Live_surface.Compile.core
  in
  (* the change set: two stacked cold-global restamps composed into one
     target program — N edits, one diff/typecheck/compile *)
  let restamp (name : string) (stamp : int) (prog : P.t) : P.t =
    match P.find prog name with
    | Some (P.Global { name; ty; _ }) ->
        P.with_def prog
          (P.Global
             { name; ty; init = Live_core.Ast.VNum (float_of_int stamp) })
    | _ -> failwith ("B14: cold global " ^ name ^ " not found")
  in
  let change_set (prog : P.t) ~(stamp : int) : P.t =
    H.Rollout.compose ~base:prog
      [ restamp "c0" stamp; restamp "c1" (stamp + 1) ]
  in
  header "B14: staged_rollout — begin/canary/promote vs. flat broadcast"
    "The same 2-edit change set fleet-wide, either as one flat \
     incremental broadcast or as the full staged lifecycle (stage the \
     second epoch, canary a 10% cohort with checkpoints, promote the \
     rest), with the two fleets' digests cross-checked byte-identical \
     — the price of making every fleet edit a revocable transaction.";
  let make k =
    let cfg =
      {
        H.Registry.default_config with
        H.Registry.width = 32;
        cache = true;
        evaluator = Live_core.Machine.Compiled;
      }
    in
    let reg = H.Registry.create ~config:cfg app in
    (match H.Registry.spawn_many reg k with
    | Ok _ -> ()
    | Error e -> failwith (Live_core.Machine.error_to_string e));
    (* warm-up broadcast: after it the boot code has been checked, so
       every timed delivery starts from the incremental premise *)
    (match
       H.Broadcast.update ~typecheck:H.Broadcast.Incremental reg
         (change_set (H.Registry.program reg) ~stamp:1000)
     with
    | Ok _ -> ()
    | Error e -> failwith (Live_core.Machine.error_to_string e));
    reg
  in
  let run_flat (k : int) : float * string =
    let reg = make k in
    let per_edit_ns =
      median_pass (fun pass ->
          for e = 1 to edits do
            let stamp = (pass * edits) + e in
            match
              H.Broadcast.update ~typecheck:H.Broadcast.Incremental reg
                (change_set (H.Registry.program reg) ~stamp)
            with
            | Ok _ -> ()
            | Error e -> failwith (Live_core.Machine.error_to_string e)
          done)
    in
    (per_edit_ns, H.Registry.digest reg)
  in
  let run_staged (k : int) : float * string =
    let reg = make k in
    let per_edit_ns =
      median_pass (fun pass ->
          for e = 1 to edits do
            let stamp = (pass * edits) + e in
            match
              H.Rollout.begin_ ~typecheck:H.Broadcast.Incremental ~fraction:0.1
                ~seed:(100 + stamp) reg
                (change_set (H.Registry.program reg) ~stamp)
            with
            | Error e -> failwith (Live_core.Machine.error_to_string e)
            | Ok r ->
                ignore (H.Rollout.canary r);
                ignore (H.Rollout.promote r)
          done)
    in
    (per_edit_ns, H.Registry.digest reg)
  in
  List.concat_map
    (fun k ->
      let flat_ns, flat_digest = run_flat k in
      let staged_ns, staged_digest = run_staged k in
      if not (String.equal flat_digest staged_digest) then
        failwith
          (Printf.sprintf
             "B14: fleet=%d digest mismatch — staged promote diverged from \
              the flat broadcast"
             k);
      let overhead = staged_ns /. flat_ns in
      Printf.printf
        "  fleet=%5d  flat %s/edit  staged %s/edit  overhead %.2fx  digest \
         %s\n"
        k (pp_time flat_ns) (pp_time staged_ns) overhead
        (String.sub flat_digest 0 8);
      [
        {
          id = Printf.sprintf "b14/broadcast-flat/fleet=%05d" k;
          unit_ = "ns";
          value = flat_ns;
        };
        {
          id = Printf.sprintf "b14/rollout-staged/fleet=%05d" k;
          unit_ = "ns";
          value = staged_ns;
        };
        {
          id = Printf.sprintf "b14/overhead/fleet=%05d" k;
          unit_ = "ratio";
          value = overhead;
        };
      ])
    fleet_sizes

(* ------------------------------------------------------------------ *)
(* B15-B17: wire cells                                                 *)
(* ------------------------------------------------------------------ *)

module Scenario = Live_net.Scenario

(** The B15-B17 load: [k] sessions over [conns] connections, one tap
    per session per round in column 2 of a random row of a 16-row app,
    each session drawing from its own stream of seed 42. *)
let wire_spec ~(program : Live_core.Program.t) ~k ~conns ~rounds :
    Scenario.spec =
  {
    Scenario.config =
      { Live_host.Registry.default_config with Live_host.Registry.width = 48 };
    batch = 8;
    program = (fun _ -> program);
    sessions = k;
    conns;
    rounds;
    window = 1;
    seed = 42;
    draw =
      (fun rng ->
        Live_host.Registry.Tap { x = 2; y = Live_core.Prng.int rng (16 + 3) });
    updates = [];
    rebalances = [];
    moves = 0;
    detach_every = 0;
  }

(** One wire cell: run the spec on the topology, check the served fleet
    against [shadow] outside the timed region ({!Live_net.Client.run}
    alone), print the cell's line and return the run with its p50, p99
    and events/s entries, named by [id metric]. *)
let wire_cell ~(label : string) ~(id : string -> string)
    (topology : Scenario.topology) (spec : Scenario.spec)
    ~(shadow : string array) : Scenario.outcome * jentry list =
  let fleet =
    Scenario.start ~config:spec.config ~batch:spec.batch topology
      (spec.program 0)
  in
  let o =
    Fun.protect ~finally:(fun () -> Scenario.stop fleet) @@ fun () ->
    match Scenario.run fleet spec with
    | Error m -> failwith (id "run" ^ ": " ^ m)
    | Ok o -> (
        match (Scenario.check fleet ~shadow o).problems with
        | [] -> o
        | p :: _ -> failwith (id "check" ^ ": " ^ p))
  in
  let p q = Live_host.Host_metrics.quantile o.report.latency q in
  let eps = float_of_int o.report.events_sent /. o.seconds in
  Printf.printf "  %s  %8.0f events/s  e2e p50 %s  p99 %s  checked\n%!" label
    eps
    (pp_time (p 0.5))
    (pp_time (p 0.99));
  ( o,
    [
      { id = id "e2e-p50-ns"; unit_ = "ns"; value = p 0.5 };
      { id = id "e2e-p99-ns"; unit_ = "ns"; value = p 0.99 };
      { id = id "events-per-sec"; unit_ = "events/s"; value = eps };
    ] )

(** B15 and B16's app: 16 rows, each reading its own global. *)
let independent_rows () : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.independent_rows ~n:16))
    .Live_surface.Compile.core

(* ------------------------------------------------------------------ *)
(* B15: networked host — end-to-end latency over real sockets          *)
(* ------------------------------------------------------------------ *)

(** B15 prices the wire (lib/net): the full event-sent →
    delta-received path over real Unix-domain sockets, server and
    lockstep client co-scheduled on one thread.  Latency here includes
    everything B10's tick latency leaves out — framing, the socket
    round-trip, select, decode, and the damage diff — so the p50 gap
    between B15 and B10 at the same fleet size {e is} the cost of the
    network layer.  The workload is [independent_rows], where a tap
    dirties exactly one row: the delta-row ratio is the fraction of
    rows actually shipped vs. what full-frame repaints would send —
    the protocol's bandwidth claim, measured rather than asserted.
    Every cell is checked against an in-process replay. *)
let b15 () : jentry list =
  header "B15: net_e2e — the networked host over real sockets"
    "lib/net end to end: event-sent -> delta-received latency \
     (framing + socket + select + decode + damage diff included) and \
     the damage-delta bandwidth ratio on independent_rows, vs. fleet \
     size.";
  List.concat_map
    (fun (k, conns) ->
      let spec =
        wire_spec ~program:(independent_rows ()) ~k ~conns
          ~rounds:(max 4 (2000 / k))
      in
      let o, entries =
        wire_cell
          ~label:(Printf.sprintf "fleet=%4d conns=%2d" k conns)
          ~id:(fun m -> Printf.sprintf "b15/%s/fleet=%04d" m k)
          Scenario.Single spec ~shadow:(Scenario.shadow spec)
      in
      let r = o.report in
      let pct =
        if r.full_rows = 0 then 0.
        else 100. *. float_of_int r.delta_rows /. float_of_int r.full_rows
      in
      Printf.printf "  fleet=%4d delta-rows %.1f%%\n" k pct;
      entries
      @ [
          {
            (* percent, not a 0-1 ratio: the JSON emitter keeps one
               decimal, which would flatten 0.053 to 0.1 *)
            id = Printf.sprintf "b15/delta-rows-pct/fleet=%04d" k;
            unit_ = "percent";
            value = pct;
          };
        ])
    [ (10, 10); (100, 25); (1000, 50) ]

(* ------------------------------------------------------------------ *)
(* B16: shard director — multi-shard scaling over the routing proxy    *)
(* ------------------------------------------------------------------ *)

(** B16 prices the shard director (lib/net/director): the same
    end-to-end path as B15 but with the fleet spread across N shard
    servers behind the routing proxy, at shards {1, 2, 4} x fleet
    {100, 1000}.  The [single] column is the B15 configuration — one
    undirected server — so the per-event cost of the extra hop
    (client -> director -> shard -> director -> client, two more
    framings per event) is read directly off the table.  Everything is
    co-scheduled on one thread, so this measures the proxy's overhead,
    not multi-core speedup: the win sharding buys in deployment is N
    processes' worth of CPU, which a single-thread harness cannot
    show; what it {e can} show is that the routing layer's tax stays
    flat as shards are added.  Every cell is checked against one
    in-process replay per fleet size. *)
let b16 () : jentry list =
  header "B16: shard_scaling — the fleet behind the shard director"
    "lib/net/director: event-sent -> delta-received latency and \
     aggregate throughput with the fleet spread over N shard servers \
     behind the routing proxy, vs. the undirected single server \
     (the B15 baseline).";
  List.concat_map
    (fun (k, conns) ->
      let spec =
        wire_spec ~program:(independent_rows ()) ~k ~conns
          ~rounds:(max 4 (2000 / k))
      in
      let shadow = Scenario.shadow spec in
      List.concat_map
        (fun (col, topology) ->
          snd
            (wire_cell
               ~label:(Printf.sprintf "fleet=%4d %-8s" k col)
               ~id:(fun m -> Printf.sprintf "b16/%s/%s/fleet=%04d" m col k)
               topology spec ~shadow))
        (("single", Scenario.Single)
        :: List.map
             (fun n -> (Printf.sprintf "shards=%d" n, Scenario.Directed n))
             [ 1; 2; 4 ]))
    [ (100, 25); (1000, 50) ]

(* ------------------------------------------------------------------ *)
(* B17: shard scale-up — spawned shard processes, pipelined clients    *)
(* ------------------------------------------------------------------ *)

(** B17 measures real scale-out, where B16 could only measure the
    routing tax: each shard server is a {e separate process} (a
    spawned standalone [host_client serve], the CI soak's shape)
    running its own select loop, so on a multi-core machine shards=N
    buys N processes' worth of execution; the client additionally
    pipelines up to W of each session's events before waiting for
    delta credits ([window]).  The machine's core count is emitted as
    [b17/cores] so the speedup figures are interpretable — on a
    single-core container the scale-up curve is honestly flat, and
    the CI runner's multi-core artifact is the number the acceptance
    criterion reads.  Every cell is checked against an in-process
    replay of the same seeded trace — the transport-invariance oracle
    guards the fast paths at every point of the matrix. *)
let b17 () : jentry list =
  (* the synthetic host app, because that is what a spawned
     [host_client serve] shard runs — the shadow replay and the
     in-process single-server baseline must execute the identical
     program *)
  let core =
    (Live_workloads.Synthetic.compile_exn
       (Live_workloads.Synthetic.host_app ~rows:16 ~version:0 ()))
      .Live_surface.Compile.core
  in
  header "B17: shard_scaleup — spawned shard processes, pipelined clients"
    "Real scale-out: shard servers spawned as separate processes \
     behind the director, the client pipelining up to W in-flight \
     events per session; single vs shards {1,2,4} x window {1,8,32}, \
     every configuration checked against an in-process shadow \
     replay.";
  let ncores = Domain.recommended_domain_count () in
  Printf.printf "  (this machine has %d cores)\n" ncores;
  let windows = [ 1; 8; 32 ] in
  let host_client_exe =
    let self = Filename.dirname Sys.executable_name in
    let p = Filename.concat (Filename.dirname self) "bin/host_client.exe" in
    if Sys.file_exists p then p
    else failwith ("b17: host_client binary not found at " ^ p)
  in
  let serve socket =
    [| host_client_exe; "serve"; "--socket"; socket; "--width"; "48";
       "--rows"; "16" |]
  in
  let cores_entry = { id = "b17/cores"; unit_ = "cores"; value = float_of_int ncores } in
  cores_entry
  :: List.concat_map
       (fun (k, conns) ->
         let spec =
           wire_spec ~program:core ~k ~conns ~rounds:(max 2 (4000 / k))
         in
         (* the trace does not depend on the topology or the window: one
            shadow replay serves every cell *)
         let shadow = Scenario.shadow spec in
         let id col window m =
           Printf.sprintf "b17/%s/%s/window=%02d/fleet=%05d" m col window k
         in
         let cell (col, topology) window : jentry list =
           snd
             (wire_cell
                ~label:(Printf.sprintf "fleet=%5d %-8s window=%2d" k col window)
                ~id:(id col window) topology { spec with window } ~shadow)
         in
         let cells =
           List.concat_map
             (fun topo -> List.concat_map (cell topo) windows)
             (("single", Scenario.Single)
             :: List.map
                  (fun n ->
                    ( Printf.sprintf "shards=%d" n,
                      Scenario.Spawned { shards = n; serve } ))
                  [ 1; 2; 4 ])
         in
         let eps col w =
           (List.find (fun e -> e.id = id col w "events-per-sec") cells).value
         in
         let ratios =
           List.map
             (fun w ->
               {
                 id =
                   Printf.sprintf "b17/scaleup-shards4-vs-1/window=%02d/fleet=%05d"
                     w k;
                 unit_ = "ratio";
                 value = eps "shards=4" w /. eps "shards=1" w;
               })
             windows
           @ [
               {
                 id = Printf.sprintf "b17/pipeline-win8-vs-1/shards=1/fleet=%05d" k;
                 unit_ = "ratio";
                 value = eps "shards=1" 8 /. eps "shards=1" 1;
               };
             ]
         in
         List.iter (fun e -> Printf.printf "  -> %s %.2fx\n" e.id e.value) ratios;
         cells @ ratios)
       [ (1000, 50); (10000, 64) ]

(* ------------------------------------------------------------------ *)
(* B18: wire encode allocation — fresh buffers vs the reused scratch   *)
(* ------------------------------------------------------------------ *)

(** B18 prices one frame encode, the operation the data plane performs
    for every delta of every session: [Wire.encode] allocates two
    fresh buffers and an output string per call, while [encode_into]
    appends to a caller-owned staging buffer through a reused scratch
    — the per-connection discipline the server and director use.  The
    companion [/alloc] entries (emitted for every Bechamel point) are
    the satellite's confirmation that the scratch path allocates a
    small constant rather than per-frame garbage. *)
let b18 () =
  let module Wire = Live_net.Wire in
  let frame =
    Wire.Host
      (Wire.Delta
         {
           session = 7;
           height = 16;
           acks = 2;
           rows = [ (0, "updated row zero"); (9, "updated row nine") ];
         })
  in
  let scratch = Buffer.create 256 in
  let staging = Buffer.create 4096 in
  run_experiment "B18: wire_encode — per-frame allocation on the data plane"
    "Wire.encode allocates fresh buffers per frame; encode_into reuses \
     a per-connection scratch and appends to the outbound staging \
     buffer — the /alloc entries confirm the difference."
    (Test.make_grouped ~name:"b18"
       [
         Test.make ~name:"encode"
           (Staged.stage (fun () -> ignore (Wire.encode frame)));
         Test.make ~name:"encode-into"
           (Staged.stage (fun () ->
                if Buffer.length staging > 1_000_000 then Buffer.clear staging;
                Wire.encode_into ~scratch staging frame));
       ])

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "itsalive benchmark harness — regenerating the paper's performance \
     discussion\n";
  Printf.printf "(quota per point: %.2fs; set BENCH_QUOTA to change)\n" quota;
  let r1 = b1 () in
  let r2 = b2 () in
  let r3 = b3 () in
  let r4 = b4 () in
  let r5 = b5 () in
  let r6 = b6 () in
  let r7 = b7 () in
  let r8 = b8 () in
  let r9 = b9 () in
  let r10 = b10 () in
  let r10s = b10_sparse () in
  let r10e = b10_epoch () in
  let r12 = b12 () in
  let r13 = b13 () in
  let r14 = b14 () in
  let r15 = b15 () in
  let r16 = b16 () in
  let r17 = b17 () in
  let r18 = b18 () in
  let alloc_entries =
    List.rev_map
      (fun (name, b) -> { id = name ^ "/alloc"; unit_ = "B/run"; value = b })
      !alloc_rows
  in
  write_json
    (List.concat_map entries_of_rows
       [ r1; r2; r3; r4; r5; r6; r7; r8; r9; r18 ]
    @ r10 @ r10s @ r10e @ r12 @ r13 @ r14 @ r15 @ r16 @ r17 @ alloc_entries);
  Printf.printf "\nDone. See EXPERIMENTS.md for interpretation.\n"
