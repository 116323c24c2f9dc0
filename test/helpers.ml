(** Shared helpers for the test-suite: Alcotest testables for the core
    types, compilation shortcuts, and small program builders. *)

open Live_core

let typ : Typ.t Alcotest.testable = Alcotest.testable Typ.pp Typ.equal
let eff : Eff.t Alcotest.testable = Alcotest.testable Eff.pp Eff.equal

let value : Ast.value Alcotest.testable =
  Alcotest.testable Pretty.pp_value Ast.equal_value

let expr : Ast.expr Alcotest.testable =
  Alcotest.testable Pretty.pp_expr Ast.equal_expr

let boxcontent : Boxcontent.t Alcotest.testable =
  Alcotest.testable Boxcontent.pp Boxcontent.equal

let store : Store.t Alcotest.testable =
  Alcotest.testable Store.pp Store.equal

let event : Event.t Alcotest.testable =
  Alcotest.testable Event.pp Event.equal

let rect : Live_ui.Geometry.rect Alcotest.testable =
  Alcotest.testable Live_ui.Geometry.pp Live_ui.Geometry.equal

(** Substring containment, for screenshot and error-message checks. *)
let contains (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains name s sub =
  if not (contains s sub) then
    Alcotest.failf "%s: %S does not contain %S" name s sub

(** Replace every occurrence of [from] in [s] by [into]. *)
let replace (s : string) (from : string) (into : string) : string =
  let n = String.length s and m = String.length from in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = from then begin
      Buffer.add_string buf into;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* -- result unwrapping --------------------------------------------- *)

let ok_machine (what : string) (r : ('a, Machine.error) result) : 'a =
  match r with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Machine.error_to_string e)

let ok_compile (src : string) : Live_surface.Compile.compiled =
  match Live_surface.Compile.compile src with
  | Ok c -> c
  | Error e ->
      Alcotest.failf "compile failed: %s"
        (Live_surface.Compile.error_to_string e)

let compile_error (src : string) : string =
  match Live_surface.Compile.compile src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error e -> e.Live_surface.Compile.message

(** Compile, boot and stabilise a surface program into a session. *)
let session_of ?width ?cache (src : string) : Live_runtime.Session.t =
  let c = ok_compile src in
  ok_machine "session create"
    (Live_runtime.Session.create ?width ?cache c.Live_surface.Compile.core)

(** A session snapshot in the retired format version 1, which also
    carried engine settings: over [program], and asking for a negative
    display width. *)
let v1_snapshot_text (program : Live_core.Program.t) : string =
  String.concat "\n "
    [
      "(snapshot";
      "(version 1)";
      "(width -1)";
      Printf.sprintf "(fuel %d)" Live_core.Eval.default_fuel;
      "(incremental false)";
      "(cache false)";
      "(evaluator subst)";
      String.trim (Live_net.Snapshot.program_to_string program);
      "(store)";
      "(stack)";
      "(trace)";
      "(fault none)";
      "(pending)";
    ]
  ^ ")\n"

let live_of ?width (src : string) : Live_runtime.Live_session.t =
  match Live_runtime.Live_session.create ?width src with
  | Ok l -> l
  | Error e ->
      Alcotest.failf "live session: %s"
        (Live_runtime.Live_session.error_to_string e)

(* -- core program builders ----------------------------------------- *)

let vnum f = Ast.VNum f
let vstr s = Ast.VStr s
let num f = Ast.Val (Ast.VNum f)
let str s = Ast.Val (Ast.VStr s)
let lam x ty body = Ast.Val (Ast.VLam (x, ty, body))
let prim ?(targs = []) name args = Ast.Prim (name, targs, args)
let add a b = prim "add" [ a; b ]

(** [page start() init { } render { body }] with no globals: the
    minimal host for a render expression. *)
let render_only (body : Ast.expr) : Program.t =
  Program.of_defs
    [
      Program.Page
        {
          name = "start";
          arg_ty = Typ.unit_;
          init = lam "_" Typ.unit_ Ast.eunit;
          render = lam "_" Typ.unit_ body;
        };
    ]

(** A program with one numeric global and a render body showing it. *)
let counter_core ?(init_body = Ast.eunit) () : Program.t =
  Program.of_defs
    [
      Program.Global { name = "n"; ty = Typ.Num; init = vnum 0.0 };
      Program.Page
        {
          name = "start";
          arg_ty = Typ.unit_;
          init = lam "_" Typ.unit_ init_body;
          render =
            lam "_" Typ.unit_
              (Ast.Boxed
                 ( Some (Srcid.of_int 1),
                   Ast.App
                     ( lam "x" Typ.unit_
                         (Ast.SetAttr
                            ( "ontap",
                              lam "_" Typ.unit_
                                (Ast.Set ("n", add (Ast.Get "n") (num 1.0)))
                            )),
                       Ast.Post (Ast.Get "n") ) ));
        };
    ]

let boot (p : Program.t) : State.t = ok_machine "boot" (Machine.boot p)

let stable (st : State.t) : State.t =
  ok_machine "run_to_stable" (Machine.run_to_stable st)

let get_display (st : State.t) : Boxcontent.t =
  match st.State.display with
  | State.Invalid -> Alcotest.fail "display is invalid"
  | State.Shown b -> b

let get_store_num (st : State.t) (g : string) : float =
  match Store.read st.State.code g st.State.store with
  | Some (Ast.VNum f) -> f
  | Some v -> Alcotest.failf "global %s is not a number: %a" g Pretty.pp_value v
  | None -> Alcotest.failf "global %s unreadable" g
