(** The dependency-tracked render cache and the damage-tracked painter
    (ISSUE 1): {b transparency} — a cached RENDER installs exactly the
    box tree the uncached rule produces, across taps, backs and code
    UPDATEs, and damage repaints are cell-identical to full repaints —
    and {b effectiveness} — unchanged displays revalidate without
    evaluation, unchanged subtrees splice from the cache, unchanged
    rows are not repainted. *)

open Live_runtime
open Helpers
module Rc = Live_core.Render_cache
module Machine = Live_core.Machine
module State = Live_core.State
module Boxcontent = Live_core.Boxcontent

let core_of (src : string) : Live_core.Program.t =
  (ok_compile src).Live_surface.Compile.core

let rows_src n = Live_workloads.Synthetic.flat_rows ~n
let indep_src n = Live_workloads.Synthetic.independent_rows ~n

let stable_with cache st =
  ok_machine "run_to_stable" (Machine.run_to_stable ~cache st)

(* ------------------------------------------------------------------ *)
(* Unit: the whole-display fast path                                   *)
(* ------------------------------------------------------------------ *)

let test_unchanged_rerender_revalidates () =
  let cache = Rc.create () in
  let st = ok_machine "boot" (Machine.boot ~cache (core_of (rows_src 20))) in
  let st1 =
    ok_machine "re-render" (Machine.render ~cache (State.invalidate st))
  in
  Alcotest.(check bool)
    "display physically reused" true
    (get_display st == get_display st1);
  let s = Rc.stats cache in
  Alcotest.(check bool)
    (Printf.sprintf "revalidated (saw %d)" s.Rc.revalidations)
    true (s.Rc.revalidations >= 1)

let test_foreign_thunk_is_free () =
  (* the tap handler writes a global the render never reads: RENDER
     must revalidate the display without evaluating anything, and the
     painter must skip the identical frame outright *)
  let src =
    "global shown : number = 0\n\
     global hidden : number = 0\n\
     page start()\n\
     init { }\n\
     render {\n\
    \  boxed { post \"shown \" ++ str(shown) on tapped { hidden := hidden + \
     1 } }\n\
     }\n"
  in
  let s = session_of ~width:30 ~cache:true src in
  ignore (Session.screenshot s);
  let before = Option.get (Session.render_cache_stats s) in
  ignore (ok_machine "tap" (Session.tap_first s));
  ignore (Session.screenshot s);
  let after = Option.get (Session.render_cache_stats s) in
  Alcotest.(check bool)
    "THUNK not touching rendered state revalidates" true
    (after.Rc.revalidations > before.Rc.revalidations);
  let d = Option.get (Session.damage_stats s) in
  Alcotest.(check bool)
    "identical frame skipped outright" true
    (d.Session.skipped_frames >= 1)

(* ------------------------------------------------------------------ *)
(* Unit: subtree splicing                                              *)
(* ------------------------------------------------------------------ *)

let test_tap_reuses_unchanged_subtrees () =
  let core = core_of (indep_src 20) in
  let cache = Rc.create () in
  let cached = ok_machine "boot" (Machine.boot ~cache core) in
  let plain = ok_machine "boot" (Machine.boot core) in
  let s0 = Rc.stats cache in
  (* tap row 0: only g0 changes, so rows 1..19 must splice *)
  let cached =
    stable_with cache (ok_machine "tap" (Machine.tap_first cached))
  in
  let plain =
    ok_machine "run_to_stable"
      (Machine.run_to_stable (ok_machine "tap" (Machine.tap_first plain)))
  in
  Alcotest.(check boxcontent)
    "cached display = uncached display" (get_display plain)
    (get_display cached);
  let s1 = Rc.stats cache in
  let hits = s1.Rc.hits - s0.Rc.hits in
  let misses = s1.Rc.misses - s0.Rc.misses in
  Alcotest.(check bool)
    (Printf.sprintf "mostly hits (%d hits, %d misses)" hits misses)
    true
    (hits >= 15 && misses <= 6)

let test_update_flushes_cache () =
  let cache = Rc.create () in
  let st = ok_machine "boot" (Machine.boot ~cache (core_of (rows_src 10))) in
  let st =
    ok_machine "re-render" (Machine.render ~cache (State.invalidate st))
  in
  let flushes0 = (Rc.stats cache).Rc.flushes in
  (* swap code: entries keyed to the old code must go, and the display
     immediately after UPDATE must match an uncached render *)
  let v2 = core_of (rows_src 12) in
  let st' = stable_with cache (ok_machine "update" (Machine.update v2 st)) in
  let plain =
    ok_machine "uncached render"
      (Machine.run_to_stable (State.invalidate st'))
  in
  Alcotest.(check boxcontent)
    "display after UPDATE = uncached render" (get_display plain)
    (get_display st');
  Alcotest.(check bool)
    "code swap flushed the cache" true
    ((Rc.stats cache).Rc.flushes > flushes0)

(* ------------------------------------------------------------------ *)
(* Unit: damage-tracked painting                                       *)
(* ------------------------------------------------------------------ *)

let full_paint root =
  let fb =
    Live_ui.Framebuffer.create ~width:40
      ~height:(max 1 (Live_ui.Layout.total_height root))
  in
  Live_ui.Render.paint fb root;
  fb

let layout_of src =
  let st = ok_machine "boot" (Machine.boot (core_of src)) in
  (Live_ui.Layout.layout_page ~width:40 (get_display st), st)

let test_damage_repaint_is_cell_identical () =
  let root0, st = layout_of (rows_src 30) in
  let fb0 = full_paint root0 in
  (* move the selection: tap the second row's handler *)
  let handler = List.nth (Boxcontent.handlers (get_display st)) 1 in
  let st1 =
    ok_machine "run_to_stable"
      (Machine.run_to_stable (ok_machine "tap" (Machine.tap st ~handler)))
  in
  let root1 = Live_ui.Layout.layout_page ~width:40 (get_display st1) in
  let damaged, dmg = Live_ui.Render.paint_damaged ~prev:(root0, fb0) root1 in
  let full = full_paint root1 in
  Alcotest.(check string)
    "damaged repaint = full repaint"
    (Live_ui.Framebuffer.to_text full)
    (Live_ui.Framebuffer.to_text damaged);
  Alcotest.(check int)
    "no cell differs" 0
    (Live_ui.Framebuffer.diff_cells full damaged);
  Alcotest.(check bool)
    (Printf.sprintf "few rows repainted (%d of %d)"
       dmg.Live_ui.Render.repainted_rows dmg.Live_ui.Render.total_rows)
    true
    (dmg.Live_ui.Render.repainted_rows < dmg.Live_ui.Render.total_rows / 2)

let test_damage_zero_when_unchanged () =
  let root0, _ = layout_of (rows_src 10) in
  let fb0 = full_paint root0 in
  (* an identical layout (deterministic relayout of the same content) *)
  let root1, _ = layout_of (rows_src 10) in
  let fb1, dmg = Live_ui.Render.paint_damaged ~prev:(root0, fb0) root1 in
  Alcotest.(check int)
    "zero rows repainted" 0 dmg.Live_ui.Render.repainted_rows;
  Alcotest.(check string)
    "frame unchanged"
    (Live_ui.Framebuffer.to_text fb0)
    (Live_ui.Framebuffer.to_text fb1)

let test_damage_full_on_height_change () =
  let root0, _ = layout_of (rows_src 10) in
  let fb0 = full_paint root0 in
  let root1, _ = layout_of (rows_src 14) in
  let fb1, dmg = Live_ui.Render.paint_damaged ~prev:(root0, fb0) root1 in
  Alcotest.(check bool) "full repaint" true dmg.Live_ui.Render.full;
  Alcotest.(check string)
    "still cell-identical"
    (Live_ui.Framebuffer.to_text (full_paint root1))
    (Live_ui.Framebuffer.to_text fb1)

(* a damage repaint writes only its dirty rows, so every clean row's
   text is the previous frame's string itself *)
let test_clean_rows_keep_their_text () =
  let row s = Boxcontent.Box (None, [ Boxcontent.Leaf (Live_core.Ast.VStr s) ]) in
  let page mid = [ row "alpha"; row mid; row "gamma"; row "delta" ] in
  let root0 = Live_ui.Layout.layout_page ~width:40 (page "beta") in
  let root1 = Live_ui.Layout.layout_page ~width:40 (page "BETA") in
  let fb0 = full_paint root0 in
  let rows0 = Live_ui.Framebuffer.rows fb0 in
  let fb1, dmg = Live_ui.Render.paint_damaged ~prev:(root0, fb0) root1 in
  Alcotest.(check int) "one dirty row" 1 dmg.Live_ui.Render.repainted_rows;
  let rows1 = Live_ui.Framebuffer.rows fb1 in
  Alcotest.(check (array string))
    "rows = a full repaint's"
    (Live_ui.Framebuffer.rows (full_paint root1))
    rows1;
  Array.iteri
    (fun y r ->
      if y <> 1 then
        Alcotest.(check bool)
          (Printf.sprintf "row %d is the previous string" y)
          true (r == rows0.(y)))
    rows1;
  Alcotest.(check (array string))
    "the previous frame is untouched"
    [| "alpha"; "beta"; "gamma"; "delta" |]
    (Live_ui.Framebuffer.rows fb0)

(* ------------------------------------------------------------------ *)
(* Unit: the TAP handler index                                         *)
(* ------------------------------------------------------------------ *)

let test_handler_index_agrees_with_scan () =
  let st =
    ok_machine "boot"
      (Machine.boot (Live_workloads.Mortgage.core ~listings:8 ()))
  in
  let b = get_display st in
  let all = Boxcontent.handlers b in
  Alcotest.(check bool) "has handlers" true (all <> []);
  List.iter
    (fun h ->
      Alcotest.(check bool)
        "indexed lookup finds every handler" true
        (Boxcontent.mem_handler b h))
    all;
  Alcotest.(check bool)
    "indexed lookup rejects a non-handler" false
    (Boxcontent.mem_handler b (Live_core.Ast.VStr "not a handler"))

(* ------------------------------------------------------------------ *)
(* Property: cached RENDER = uncached RENDER                           *)
(* ------------------------------------------------------------------ *)

(** Program pool the machines UPDATE between; crossing shapes (globals
    appear and disappear, pages change) exercises the flush path. *)
let sources : string array =
  [|
    Live_workloads.Mortgage.source ~listings:3 ();
    Live_workloads.Mortgage.source ~listings:3 ~i1:true ();
    Live_workloads.Counter.source;
    Live_workloads.Todo.source;
    rows_src 8;
    indep_src 6;
  |]

let variants : Live_core.Program.t array Lazy.t =
  lazy (Array.map core_of sources)

type action = Tap_nth of int | Back | Update of int

let gen_action : action QCheck2.Gen.t =
  let open QCheck2.Gen in
  frequency
    [
      (5, int_range 0 20 >|= fun k -> Tap_nth k);
      (2, pure Back);
      (3, int_range 0 5 >|= fun i -> Update i);
    ]

let prop_cached_equals_uncached =
  Helpers.qcheck ~count:60
    "cached RENDER = uncached RENDER across taps, backs and UPDATEs"
    QCheck2.Gen.(pair (int_range 0 5) (list_size (int_range 1 25) gen_action))
    (fun (start, script) ->
      let variants = Lazy.force variants in
      let cache = Rc.create () in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let unwrap what = function
        | Ok v -> v
        | Error e -> fail "%s: %s" what (Machine.error_to_string e)
      in
      let plain = ref (unwrap "boot" (Machine.boot variants.(start))) in
      let cached =
        ref (unwrap "boot" (Machine.boot ~cache variants.(start)))
      in
      (* the machines must succeed and fail in lockstep; on agreed
         failure both states are unchanged, so they still agree *)
      let step what p c =
        match (p, c) with
        | Ok p, Ok c ->
            plain := unwrap what (Machine.run_to_stable p);
            cached := unwrap what (Machine.run_to_stable ~cache c)
        | Error _, Error _ -> ()
        | Ok _, Error e ->
            fail "%s: cached failed where uncached succeeded: %s" what
              (Machine.error_to_string e)
        | Error e, Ok _ ->
            fail "%s: uncached failed where cached succeeded: %s" what
              (Machine.error_to_string e)
      in
      let check_agree what =
        let dp = get_display !plain and dc = get_display !cached in
        if not (Boxcontent.equal dp dc) then
          fail "%s: cached display diverged from uncached" what;
        let sp = (!plain).State.store and sc = (!cached).State.store in
        if not (Live_core.Store.equal sp sc) then
          fail "%s: stores diverged" what
      in
      check_agree "boot";
      List.iter
        (fun a ->
          (match a with
          | Tap_nth k -> (
              match Boxcontent.handlers (get_display !plain) with
              | [] -> ()
              | hs ->
                  let h = List.nth hs (k mod List.length hs) in
                  step "tap"
                    (Machine.tap !plain ~handler:h)
                    (Machine.tap !cached ~handler:h))
          | Back ->
              step "back" (Ok (Machine.back !plain)) (Ok (Machine.back !cached))
          | Update i ->
              (* the acceptance criterion calls out the state
                 immediately after an UPDATE — checked below like any
                 other step *)
              step "update"
                (Machine.update variants.(i) !plain)
                (Machine.update variants.(i) !cached));
          check_agree "step")
        script;
      true)

(* the same transparency one layer up: the whole session — memoized
   RENDER, layout reuse and the damage-tracked painter together — must
   produce pixel-identical screenshots *)
let prop_session_pixels_identical =
  Helpers.qcheck ~count:30
    "cached sessions render pixel-identical screenshots"
    QCheck2.Gen.(pair (int_range 0 5) (list_size (int_range 1 15) gen_action))
    (fun (start, script) ->
      let plain = session_of ~width:44 sources.(start) in
      let cached = session_of ~width:44 ~cache:true sources.(start) in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let agree what p c =
        match (p, c) with
        | Ok _, Ok _ | Error _, Error _ -> ()
        | Ok _, Error e ->
            fail "%s: cached session failed: %s" what
              (Machine.error_to_string e)
        | Error e, Ok _ ->
            fail "%s: uncached session failed: %s" what
              (Machine.error_to_string e)
      in
      let check_same what =
        let a = Session.screenshot plain and b = Session.screenshot cached in
        if not (String.equal a b) then
          fail "%s: screenshots diverged:\n%s\nvs\n%s" what a b
      in
      check_same "boot";
      List.iter
        (fun a ->
          (match a with
          | Tap_nth k ->
              let x = 2 + (k mod 40) and y = k mod 30 in
              agree "tap" (Session.tap plain ~x ~y) (Session.tap cached ~x ~y)
          | Back -> agree "back" (Session.back plain) (Session.back cached)
          | Update i ->
              let core = core_of sources.(i) in
              agree "update" (Session.update plain core)
                (Session.update cached core));
          check_same "step")
        script;
      true)

(* ------------------------------------------------------------------ *)
(* One cache per code epoch                                            *)
(* ------------------------------------------------------------------ *)

module H = Live_host

(** One cell of each tappable box of the session's page, in reading
    order of the boxes' first cells. *)
let tap_targets (s : Session.t) : (int * int) array =
  match Session.layout s with
  | None -> [||]
  | Some node ->
      let groups = ref [] in
      for y = 0 to Live_ui.Layout.total_height node - 1 do
        for x = 0 to Session.width s - 1 do
          match Live_ui.Layout.handler_at node ~x ~y with
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

(** A session outside a registry keeps tables of its own: an UPDATE
    without a diff moves it onto fresh tables bound to the new code —
    one flush — and the next tap replays the subtrees the post-update
    render recorded. *)
let test_own_tables_rebind_after_update () =
  let s =
    ok_machine "boot" (Session.create ~cache:true (core_of (indep_src 20)))
  in
  let stats () = Option.get (Session.render_cache_stats s) in
  let before = stats () in
  ignore (ok_machine "update" (Session.update s (core_of (indep_src 20))));
  let updated = stats () in
  let x, y = (tap_targets s).(0) in
  ignore (ok_machine "tap" (Session.tap s ~x ~y));
  let tapped = stats () in
  Alcotest.(check bool)
    (Printf.sprintf "the tap after the update hits (%d hits)"
       (tapped.Rc.hits - updated.Rc.hits))
    true
    (tapped.Rc.hits > updated.Rc.hits);
  Alcotest.(check int) "one flush" 1 (tapped.Rc.flushes - before.Rc.flushes)

(** A slot that grows while the young generation is full swaps the
    generations first: fill the young generation to exactly N with a
    key of one entry in it, then give that key a second entry — no
    add may take the tables past the bound. *)
let test_full_generation_swaps_before_a_slot_grows () =
  let prog = core_of (rows_src 1) in
  let c = Rc.create () in
  Rc.ensure_code c prog;
  let n = Rc.bound / 2 and fresh = ref 0 in
  let add site v =
    Rc.add c
      (Rc.site_key ~site ~args:[])
      ~prog ~value:Live_core.Ast.vunit
      ~item:(Boxcontent.Leaf (Live_core.Ast.VNum v))
      ~reads:[ ("g", Live_core.Ast.VNum v) ];
    if Rc.size c > Rc.bound then
      Alcotest.failf "%d entries, above the bound %d" (Rc.size c) Rc.bound
  in
  let add_fresh () =
    incr fresh;
    add !fresh 0.;
    !fresh
  in
  for _ = 1 to 2 do
    (* fresh keys until one swaps: it is alone in the young generation *)
    let swaps = Rc.swaps c in
    let key = ref (add_fresh ()) in
    while Rc.swaps c = swaps do
      key := add_fresh ()
    done;
    for _ = 2 to n do
      ignore (add_fresh ())
    done;
    let swaps = Rc.swaps c in
    add !key 1.;
    Alcotest.(check int) "the full generation swapped" (swaps + 1) (Rc.swaps c)
  done

(** The bound holds shard-wide: ten mortgage sessions browsing 2,000
    taps each (open a listing, tap its term or APR control 1-6 times,
    go back) fill the epoch's tables past a generation more than twice,
    and the tables never hold more than the bound. *)
let test_epoch_tables_stay_bounded () =
  let k = 10 and taps = 2000 and width = 48 in
  let prog = Live_workloads.Mortgage.core ~listings:12 () in
  (* the start page's listings, and each detail page's two controls *)
  let scout = ok_machine "scout" (Session.create ~width prog) in
  let start = tap_targets scout in
  let detail =
    Array.map
      (fun (x, y) ->
        ignore (ok_machine "open" (Session.tap scout ~x ~y));
        let d = tap_targets scout in
        ignore (ok_machine "back" (Session.back scout));
        d)
      start
  in
  let cfg = { H.Registry.default_config with H.Registry.width; cache = true } in
  let reg = H.Registry.create ~config:cfg prog in
  ignore (ok_machine "spawn" (H.Registry.spawn_many reg k));
  let rc =
    Option.get
      (Session.render_cache_handle
         (Option.get (H.Registry.session reg (H.Registry.id_at reg 0))))
  in
  let rng = Live_core.Prng.create 5 in
  (* per session: the open listing and the control taps left on it *)
  let pages = Array.make k None in
  let peak = ref 0 in
  for _ = 1 to taps do
    for i = 0 to k - 1 do
      let s = Option.get (H.Registry.session reg (H.Registry.id_at reg i)) in
      (match pages.(i) with
      | None ->
          let l = Live_core.Prng.int rng (Array.length start) in
          pages.(i) <- Some (l, 1 + Live_core.Prng.int rng 6);
          let x, y = start.(l) in
          ignore (ok_machine "open" (Session.tap s ~x ~y))
      | Some (_, 0) ->
          pages.(i) <- None;
          ignore (ok_machine "back" (Session.back s))
      | Some (l, n) ->
          pages.(i) <- Some (l, n - 1);
          let x, y = detail.(l).(Live_core.Prng.int rng 2) in
          ignore (ok_machine "control" (Session.tap s ~x ~y)));
      peak := max !peak (Rc.size rc)
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "the generations swapped at least twice (%d)" (Rc.swaps rc))
    true
    (Rc.swaps rc >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "at most %d entries (peak %d)" Rc.bound !peak)
    true (!peak <= Rc.bound)

(* k sessions on one registry's epochs against k sessions with tables
   of their own, driven by the same operations *)
type sop =
  | S_tap of int * int * int  (** session, x, y *)
  | S_back of int
  | S_update of int  (** a flat broadcast to [variants.(i)] *)
  | S_flush of int
  | S_rollout of {
      prog : int;
      seed : int;
      window : (int * int * int) list;  (** taps while both epochs live *)
      promote : bool;
    }

let gen_sop : sop QCheck2.Gen.t =
  let open QCheck2.Gen in
  let tap = map3 (fun i x y -> (i, x, y)) (int_range 0 4) (int_range 0 43) (int_range 0 29) in
  frequency
    [
      (8, tap >|= fun (i, x, y) -> S_tap (i, x, y));
      (2, int_range 0 4 >|= fun i -> S_back i);
      (2, int_range 0 5 >|= fun i -> S_update i);
      (1, int_range 0 4 >|= fun i -> S_flush i);
      ( 2,
        map4
          (fun prog seed window promote -> S_rollout { prog; seed; window; promote })
          (int_range 0 5) (int_range 0 99)
          (list_size (int_range 0 6) tap)
          bool );
    ]

let prop_shared_equals_private =
  Helpers.qcheck ~count:100
    "k sessions sharing an epoch's tables = k sessions with their own"
    QCheck2.Gen.(
      tup4 (int_range 2 5) (int_range 0 5) bool
        (list_size (int_range 1 30) gen_sop))
    (fun (k, start, subst, script) ->
      let variants = Lazy.force variants in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let evaluator = if subst then Machine.Subst else Machine.Compiled in
      let cfg =
        { H.Registry.default_config with H.Registry.width = 44; cache = true; evaluator }
      in
      let reg = H.Registry.create ~config:cfg variants.(start) in
      (match H.Registry.spawn_many reg k with
      | Ok _ -> ()
      | Error e -> fail "spawn: %s" (Machine.error_to_string e));
      let shared i = Option.get (H.Registry.session reg (H.Registry.id_at reg i)) in
      let own =
        Array.init k (fun _ ->
            match Session.create ~width:44 ~cache:true ~evaluator variants.(start) with
            | Ok s -> s
            | Error e -> fail "boot: %s" (Machine.error_to_string e))
      in
      let status = function Ok _ -> "ok" | Error e -> Machine.error_to_string e in
      let agree what a b =
        if not (String.equal (status a) (status b)) then
          fail "%s: shared %s, own %s" what (status a) (status b)
      in
      let update_own i prog =
        let diff = Live_core.Program_diff.diff ~old_prog:(Session.state own.(i)).State.code prog in
        Session.update ~diff own.(i) prog
      in
      let tap (i, x, y) =
        let i = i mod k in
        agree "tap" (Session.tap (shared i) ~x ~y) (Session.tap own.(i) ~x ~y)
      in
      let check what =
        for i = 0 to k - 1 do
          let a = H.Registry.observe_session (shared i)
          and b = H.Registry.observe_session own.(i) in
          if not (String.equal a b) then
            fail "%s: session %d diverged:\n%s\nvs\n%s" what i a b
        done
      in
      check "boot";
      List.iter
        (fun op ->
          (match op with
          | S_tap (i, x, y) -> tap (i, x, y)
          | S_back i ->
              let i = i mod k in
              agree "back" (Session.back (shared i)) (Session.back own.(i))
          | S_flush i ->
              Session.flush_caches (shared (i mod k));
              Session.flush_caches own.(i mod k)
          | S_update p -> (
              match H.Broadcast.update reg variants.(p) with
              | Error e -> fail "broadcast: %s" (Machine.error_to_string e)
              | Ok r ->
                  List.iteri
                    (fun i (o : H.Broadcast.session_outcome) ->
                      agree "update" o.H.Broadcast.outcome (update_own i variants.(p)))
                    r.H.Broadcast.outcomes)
          | S_rollout { prog; seed; window; promote } -> (
              match H.Rollout.begin_ ~fraction:0.5 ~seed reg variants.(prog) with
              | Error e -> fail "begin: %s" (Machine.error_to_string e)
              | Ok r ->
                  let canary =
                    List.map
                      (fun id ->
                        let rec index j =
                          if H.Registry.id_at reg j = id then j else index (j + 1)
                        in
                        index 0)
                      (H.Rollout.canary_ids r)
                  in
                  let outcomes = H.Rollout.canary r in
                  let cps =
                    List.map2
                      (fun i (o : H.Broadcast.session_outcome) ->
                        let cp = Session.checkpoint own.(i) in
                        agree "canary" o.H.Broadcast.outcome
                          (update_own i variants.(prog));
                        (i, cp))
                      canary outcomes
                  in
                  check "canary";
                  List.iter tap window;
                  check "window";
                  if promote then begin
                    ignore (H.Rollout.promote r);
                    for i = 0 to k - 1 do
                      if List.mem_assoc i cps then Session.commit own.(i)
                      else ignore (update_own i variants.(prog))
                    done
                  end
                  else begin
                    ignore (H.Rollout.rollback r);
                    List.iter (fun (i, cp) -> ignore (Session.rewind own.(i) cp)) cps
                  end));
          check "step")
        script;
      true)

let suite =
  [
    case "unchanged store: re-render revalidates"
      test_unchanged_rerender_revalidates;
    case "THUNK not touching rendered state is free" test_foreign_thunk_is_free;
    case "tap reuses unchanged subtrees" test_tap_reuses_unchanged_subtrees;
    case "UPDATE flushes the cache" test_update_flushes_cache;
    case "damage repaint is cell-identical" test_damage_repaint_is_cell_identical;
    case "no damage on unchanged layout" test_damage_zero_when_unchanged;
    case "height change forces full repaint" test_damage_full_on_height_change;
    case "clean rows keep their text" test_clean_rows_keep_their_text;
    case "handler index agrees with the scan" test_handler_index_agrees_with_scan;
    prop_cached_equals_uncached;
    prop_session_pixels_identical;
    prop_shared_equals_private;
    case "an UPDATE without a diff rebinds a session's own tables"
      test_own_tables_rebind_after_update;
    case "a full young generation swaps before a slot grows"
      test_full_generation_swaps_before_a_slot_grows;
    slow_case "an epoch's tables stay within the bound"
      test_epoch_tables_stay_bounded;
  ]
