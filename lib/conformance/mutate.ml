open Live_surface
module Prng = Live_core.Prng

let base_pool () : string array =
  [|
    Live_workloads.Mortgage.source ~listings:3 ();
    Live_workloads.Mortgage.source ~listings:3 ~i1:true ();
    Live_workloads.Mortgage.source ~listings:3 ~i2:true ();
    Live_workloads.Mortgage.source ~listings:3 ~i1:true ~i2:true ~i3:true ();
    Live_workloads.Counter.source;
    Live_workloads.Todo.source;
  |]

let broken_source = "page broken {"

let compiles (src : string) : bool =
  match Compile.compile src with Ok _ -> true | Error _ -> false

let print (p : Sast.program) : string = Printer.program_to_string p

let dummy_expr (desc : Sast.desc) : Sast.expr =
  { Sast.desc; loc = Loc.dummy; eid = -1 }

let dummy_stmt (sdesc : Sast.sdesc) : Sast.stmt =
  { Sast.sdesc; sloc = Loc.dummy; sid = -1 }

(* -- mutation operators ---------------------------------------------- *)

(** Remove one declaration (never the start page).  Usually only
    compiles when nothing references the declaration — exactly the
    edits that make fixup delete store bindings and stack entries. *)
let drop_decl (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let victims =
    List.filter
      (fun d -> not (String.equal (Sast.decl_name d) "start"))
      p.Sast.decls
  in
  match victims with
  | [] -> None
  | _ ->
      let v = Sast.decl_name (Prng.pick rng (Array.of_list victims)) in
      Some
        {
          Sast.decls =
            List.filter
              (fun d -> not (String.equal (Sast.decl_name d) v))
              p.Sast.decls;
        }

(** Change a numeric global's declared initial value: old store
    bindings still type (S-OKAY), but renders that read the global
    through EP-GLOBAL-2's fallback must observe the new initial. *)
let reset_global (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let nums =
    List.filter
      (fun d ->
        match d with
        | Sast.DGlobal { gty = Sast.TyNum; _ } -> true
        | _ -> false)
      p.Sast.decls
  in
  match nums with
  | [] -> None
  | _ ->
      let v = Sast.decl_name (Prng.pick rng (Array.of_list nums)) in
      let fresh = float_of_int (1 + Prng.int rng 99) in
      Some
        {
          Sast.decls =
            List.map
              (fun d ->
                match d with
                | Sast.DGlobal ({ name; _ } as g) when String.equal name v ->
                    Sast.DGlobal
                      { g with init = dummy_expr (Sast.Num fresh) }
                | d -> d)
              p.Sast.decls;
        }

(** Flip a global between number and string: a surviving store binding
    no longer types, so fixup must S-SKIP it back to the new initial. *)
let retype_global (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let globals =
    List.filter
      (fun d ->
        match d with
        | Sast.DGlobal { gty = Sast.TyNum | Sast.TyStr; _ } -> true
        | _ -> false)
      p.Sast.decls
  in
  match globals with
  | [] -> None
  | _ ->
      let v = Sast.decl_name (Prng.pick rng (Array.of_list globals)) in
      Some
        {
          Sast.decls =
            List.map
              (fun d ->
                match d with
                | Sast.DGlobal ({ name; gty = Sast.TyNum; _ } as g)
                  when String.equal name v ->
                    Sast.DGlobal
                      {
                        g with
                        gty = Sast.TyStr;
                        init = dummy_expr (Sast.Str "mutated");
                      }
                | Sast.DGlobal ({ name; gty = Sast.TyStr; _ } as g)
                  when String.equal name v ->
                    Sast.DGlobal
                      { g with gty = Sast.TyNum; init = dummy_expr (Sast.Num 7.) }
                | d -> d)
              p.Sast.decls;
        }

(** Declare a fresh global the old code never had: its first read goes
    through EP-GLOBAL-2, and an UPDATE back to the old code deletes
    any binding it acquired. *)
let add_global (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let name = Printf.sprintf "fz%d" (Prng.int rng 1000) in
  if List.exists (fun d -> String.equal (Sast.decl_name d) name) p.Sast.decls
  then None
  else
    Some
      {
        Sast.decls =
          Sast.DGlobal
            {
              name;
              gty = Sast.TyNum;
              init = dummy_expr (Sast.Num (float_of_int (Prng.int rng 10)));
              dloc = Loc.dummy;
            }
          :: p.Sast.decls;
      }

(** Body-only edit class: append a [post] line to one page's render
    block.  Every declared signature is preserved, so the incremental
    pipeline classifies exactly this page (and its reverse dependants)
    dirty, no store binding or stack entry is re-checked, and only the
    edited page's cache entries are invalidated — the common case of
    live editing, and the edit class B13 benchmarks. *)
let edit_page_render (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let pages =
    List.filter
      (fun d -> match d with Sast.DPage _ -> true | _ -> false)
      p.Sast.decls
  in
  match pages with
  | [] -> None
  | _ ->
      let v = Sast.decl_name (Prng.pick rng (Array.of_list pages)) in
      let line =
        dummy_stmt
          (Sast.SPost
             (dummy_expr (Sast.Str (Printf.sprintf "fz%d" (Prng.int rng 1000)))))
      in
      Some
        {
          Sast.decls =
            List.map
              (fun d ->
                match d with
                | Sast.DPage ({ name; prender; _ } as pg)
                  when String.equal name v ->
                    Sast.DPage { pg with prender = prender @ [ line ] }
                | d -> d)
              p.Sast.decls;
        }

(** Added-definition edit class: declare a fresh identity function
    nothing references.  The incremental typecheck must check exactly
    the new definition; every session's state survives untouched. *)
let add_fun (rng : Prng.t) (p : Sast.program) : Sast.program option =
  let name = Printf.sprintf "fzf%d" (Prng.int rng 1000) in
  if List.exists (fun d -> String.equal (Sast.decl_name d) name) p.Sast.decls
  then None
  else
    Some
      {
        Sast.decls =
          Sast.DFun
            {
              name;
              params = [ ("x", Sast.TyNum) ];
              ret = Some Sast.TyNum;
              body = [ dummy_stmt (Sast.SReturn (dummy_expr (Sast.Ref "x"))) ];
              dloc = Loc.dummy;
            }
          :: p.Sast.decls;
      }

(** The transaction edit class: 2–4 stacked signature-preserving edits
    (page-body lines, fresh functions) composed into {e one} change
    set — what {!Live_host.Rollout.compose} hands to [begin_] as a
    single diff/typecheck.  Kept out of {!operators}: a transaction is
    the payload of a [Begin_txn] trace event, not a plain UPDATE. *)
let transaction (rng : Prng.t) (src : string) : string option =
  match Compile.parse src with
  | Error _ -> None
  | Ok p ->
      let ops = [| edit_page_render; add_fun |] in
      let rec compose_edits i q =
        if i = 0 then Some q
        else
          match (Prng.pick rng ops) rng q with
          | None -> None
          | Some q' -> compose_edits (i - 1) q'
      in
      let rec attempt k =
        if k = 0 then None
        else
          match compose_edits (2 + Prng.int rng 3) p with
          | None -> attempt (k - 1)
          | Some p' ->
              let src' = print p' in
              if (not (String.equal src' src)) && compiles src' then Some src'
              else attempt (k - 1)
      in
      attempt 10

let operators =
  [|
    drop_decl;
    reset_global;
    retype_global;
    add_global;
    edit_page_render;
    add_fun;
  |]

let mutate (rng : Prng.t) (src : string) : string option =
  match Compile.parse src with
  | Error _ -> None
  | Ok p ->
      let rec attempt k =
        if k = 0 then None
        else
          let op = Prng.pick rng operators in
          match op rng p with
          | None -> attempt (k - 1)
          | Some p' ->
              let src' = print p' in
              if (not (String.equal src' src)) && compiles src' then Some src'
              else attempt (k - 1)
      in
      attempt 10

(* -- deterministic simplifications (for the shrinker) ---------------- *)

(** Drop trailing halves first (strongest), then single statements. *)
let block_reductions (b : Sast.block) : Sast.block list =
  let n = List.length b in
  if n = 0 then []
  else
    let take k = List.filteri (fun i _ -> i < k) b in
    let without i = List.filteri (fun j _ -> j <> i) b in
    let halves = if n > 1 then [ take (n / 2) ] else [] in
    halves @ List.init n without

let simplifications (src : string) : string list =
  match Compile.parse src with
  | Error _ -> []
  | Ok p ->
      let drop_decls =
        List.filter_map
          (fun d ->
            let name = Sast.decl_name d in
            if String.equal name "start" then None
            else
              Some
                {
                  Sast.decls =
                    List.filter
                      (fun d' ->
                        not (String.equal (Sast.decl_name d') name))
                      p.Sast.decls;
                })
          p.Sast.decls
      in
      let page_reductions =
        List.concat_map
          (fun d ->
            match d with
            | Sast.DPage { name; params; pinit; prender; dloc } ->
                let with_bodies ~pinit ~prender =
                  {
                    Sast.decls =
                      List.map
                        (fun d' ->
                          match d' with
                          | Sast.DPage { name = n'; _ }
                            when String.equal n' name ->
                              Sast.DPage { name; params; pinit; prender; dloc }
                          | d' -> d')
                        p.Sast.decls;
                  }
                in
                List.map
                  (fun b -> with_bodies ~pinit ~prender:b)
                  (block_reductions prender)
                @
                if pinit = [] then []
                else [ with_bodies ~pinit:[] ~prender ]
            | _ -> [])
          p.Sast.decls
      in
      let candidates = drop_decls @ page_reductions in
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun p' ->
          let src' = print p' in
          if
            String.equal src' src
            || Hashtbl.mem seen src'
            || not (compiles src')
          then None
          else begin
            Hashtbl.replace seen src' ();
            Some src'
          end)
        candidates
