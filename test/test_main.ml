(** Test-suite entry point.  Each [Test_*] module exposes a [suite];
    suites are grouped roughly bottom-up: core data structures, the
    formal system (Figs. 6-12), the surface compiler, the UI substrate,
    the live runtime, the baselines, and the paper's scenarios. *)

let () =
  Alcotest.run "itsalive"
    [
      ("eff", Test_eff.suite);
      ("typ", Test_typ.suite);
      ("fqueue", Test_fqueue.suite);
      ("ast", Test_ast.suite);
      ("prim", Test_prim.suite);
      ("eval", Test_eval.suite);
      ("smallstep", Test_smallstep.suite);
      ("typecheck", Test_typecheck.suite);
      ("state-typing", Test_state_typing.suite);
      ("fixup", Test_fixup.suite);
      ("state", Test_state.suite);
      ("machine", Test_machine.suite);
      ("metatheory", Test_metatheory.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("check-surface", Test_check_surface.suite);
      ("desugar", Test_desugar.suite);
      ("framebuffer", Test_framebuffer.suite);
      ("layout", Test_layout.suite);
      ("render", Test_render.suite);
      ("printer", Test_printer.suite);
      ("session", Test_session.suite);
      ("navigation", Test_navigation.suite);
      ("live", Test_live.suite);
      ("direct-manipulation", Test_direct_manipulation.suite);
      ("mortgage", Test_mortgage.suite);
      ("workloads", Test_workloads.suite);
      ("baseline", Test_baseline.suite);
      ("incremental", Test_incremental.suite);
      ("render-cache", Test_render_cache.suite);
      ("compile-eval", Test_compile_eval.suite);
      ("program-diff", Test_program_diff.suite);
      ("probe", Test_probe.suite);
      ("properties", Test_properties.suite);
      ("golden", Test_golden.suite);
      ("build", Test_build.suite);
      ("calculator", Test_calculator.suite);
      ("stepper", Test_stepper.suite);
      ("fuzz", Test_fuzz.suite);
      ("conformance", Test_conformance.suite);
      ("host", Test_host.suite);
      ("rollout", Test_rollout.suite);
      ("net", Test_net.suite);
      ("director", Test_director.suite);
      ("scenario", Test_scenario.suite);
      ("misc", Test_misc.suite);
    ]
