(** The fuzzer's program-edit pool: fixup-aware mutations of surface
    sources.

    "Fixup-aware" means the operators are chosen to exercise the
    Fig. 12 UPDATE/fixup path specifically: deleting declarations
    (S-SKIP / P-SKIP), retyping globals (S-SKIP on type mismatch),
    changing initial values (EP-GLOBAL-2's fallback, and the render
    cache's recorded reads), and adding fresh globals.  Every mutant
    is validated by the full compilation pipeline, so the pool only
    ever contains programs an editor could actually install. *)

val base_pool : unit -> string array
(** The workload variants edits move between: the mortgage app's
    Sec. 3.1 improvement steps plus two differently-shaped apps, so
    edits cross program-shape boundaries. *)

val broken_source : string
(** A source that must be rejected by the compiler — the
    [Broken_update] event's payload. *)

val mutate : Live_core.Prng.t -> string -> string option
(** One random fixup-aware mutation of a compiling source; [None] if
    no compiling mutant was found within the attempt budget. *)

val transaction : Live_core.Prng.t -> string -> string option
(** A transaction-sized change set: 2–4 stacked signature-preserving
    edits (page-body lines, fresh functions) composed into one
    compiling source — the payload of a [Begin_txn] trace event, the
    edit class {!Live_host.Rollout} stages and B14 benchmarks.  [None]
    if no compiling composition was found within the budget. *)

val simplifications : string -> string list
(** Deterministic, compiling one-step simplifications of a source
    (declaration dropped, page body truncated, init body emptied) —
    the shrinker's program-reduction moves, strongest first. *)
