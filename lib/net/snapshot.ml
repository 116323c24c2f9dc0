(** Canonical session snapshots (see the interface).  The format is a
    tiny s-expression language with a deterministic printer — bare
    atoms where possible, quoted atoms with a fixed escape set
    otherwise — so every snapshot value has exactly one text image and
    [of_string] ∘ [to_string] is the identity byte-for-byte. *)

module Ast = Live_core.Ast
module Typ = Live_core.Typ
module Eff = Live_core.Eff
module Program = Live_core.Program
module Srcid = Live_core.Srcid
module Store = Live_core.Store
module Machine = Live_core.Machine
module Session = Live_runtime.Session
module Registry = Live_host.Registry

type t = {
  program : Program.t;
  store : (Live_core.Ident.global * Ast.value) list;
  stack : (Live_core.Ident.page * Ast.value) list;
  fault : Session.fault option;
  pending : Wire.event list;
}

(* The one format version this printer writes and the parser accepts. *)
let version = 2

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

type sexp = A of string | L of sexp list

exception Parse of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let is_atom_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '+' | '-' -> true
  | _ -> false

let bare_atom s =
  s <> "" && String.for_all is_atom_char s

let print_atom (b : Buffer.t) (s : string) =
  if bare_atom s then Buffer.add_string b s
  else begin
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 || Char.code c > 0x7E ->
            Buffer.add_string b (Printf.sprintf "\\x%02x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  end

let rec print_sexp (b : Buffer.t) = function
  | A s -> print_atom b s
  | L items ->
      Buffer.add_char b '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ' ';
          print_sexp b x)
        items;
      Buffer.add_char b ')'

let parse_sexp (s : string) : sexp =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let rec parse () : sexp =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '(' ->
        incr pos;
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          if !pos >= n then fail "unclosed list";
          if s.[!pos] = ')' then incr pos
          else begin
            items := parse () :: !items;
            loop ()
          end
        in
        loop ();
        L (List.rev !items)
    | ')' -> fail "unexpected ')'"
    | '"' ->
        incr pos;
        let b = Buffer.create 16 in
        let rec loop () =
          if !pos >= n then fail "unterminated string";
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= n then fail "dangling escape";
              (match s.[!pos + 1] with
              | '\\' ->
                  Buffer.add_char b '\\';
                  pos := !pos + 2
              | '"' ->
                  Buffer.add_char b '"';
                  pos := !pos + 2
              | 'n' ->
                  Buffer.add_char b '\n';
                  pos := !pos + 2
              | 'r' ->
                  Buffer.add_char b '\r';
                  pos := !pos + 2
              | 't' ->
                  Buffer.add_char b '\t';
                  pos := !pos + 2
              | 'x' ->
                  if !pos + 3 >= n then fail "truncated \\x escape";
                  (match
                     int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 2)
                   with
                  | Some c ->
                      Buffer.add_char b (Char.chr c);
                      pos := !pos + 4
                  | None -> fail "malformed \\x escape")
              | c -> fail "unknown escape '\\%c'" c);
              loop ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              loop ()
        in
        loop ();
        A (Buffer.contents b)
    | c when is_atom_char c ->
        let start = !pos in
        while !pos < n && is_atom_char s.[!pos] do
          incr pos
        done;
        A (String.sub s start (!pos - start))
    | c -> fail "unexpected character %C" c
  in
  let x = parse () in
  skip_ws ();
  if !pos <> n then fail "trailing input after snapshot";
  x

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* [%h] prints the exact bit pattern as a C99 hex-float literal (and
   [nan] / [infinity] by name); [float_of_string] reads all of them
   back losslessly. *)
let sexp_of_float (f : float) : sexp = A (Printf.sprintf "%h" f)

let rec sexp_of_typ : Typ.t -> sexp = function
  | Typ.Num -> A "num"
  | Typ.Str -> A "str"
  | Typ.Tuple ts -> L (A "tuple" :: List.map sexp_of_typ ts)
  | Typ.Fn (a, e, r) ->
      L [ A "fn"; sexp_of_typ a; A (Eff.to_string e); sexp_of_typ r ]
  | Typ.List t -> L [ A "list"; sexp_of_typ t ]

let rec sexp_of_value : Ast.value -> sexp = function
  | Ast.VNum f -> L [ A "n"; sexp_of_float f ]
  | Ast.VStr s -> L [ A "s"; A s ]
  | Ast.VTuple vs -> L (A "tup" :: List.map sexp_of_value vs)
  | Ast.VLam (x, ty, e) -> L [ A "lam"; A x; sexp_of_typ ty; sexp_of_expr e ]
  | Ast.VList (ty, vs) ->
      L (A "vlist" :: sexp_of_typ ty :: List.map sexp_of_value vs)

and sexp_of_expr : Ast.expr -> sexp = function
  | Ast.Val v -> L [ A "val"; sexp_of_value v ]
  | Ast.Var x -> L [ A "var"; A x ]
  | Ast.Tuple es -> L (A "tuple" :: List.map sexp_of_expr es)
  | Ast.App (f, a) -> L [ A "app"; sexp_of_expr f; sexp_of_expr a ]
  | Ast.Fn f -> L [ A "fn"; A f ]
  | Ast.Proj (e, i) -> L [ A "proj"; sexp_of_expr e; A (string_of_int i) ]
  | Ast.Get g -> L [ A "get"; A g ]
  | Ast.Set (g, e) -> L [ A "set"; A g; sexp_of_expr e ]
  | Ast.Push (p, e) -> L [ A "push"; A p; sexp_of_expr e ]
  | Ast.Pop -> L [ A "pop" ]
  | Ast.Boxed (sid, e) ->
      let id =
        match sid with
        | None -> A "none"
        | Some s -> A (string_of_int (Srcid.to_int s))
      in
      L [ A "boxed"; id; sexp_of_expr e ]
  | Ast.Post e -> L [ A "post"; sexp_of_expr e ]
  | Ast.SetAttr (a, e) -> L [ A "setattr"; A a; sexp_of_expr e ]
  | Ast.Prim (name, tys, args) ->
      L
        [
          A "prim";
          A name;
          L (List.map sexp_of_typ tys);
          L (List.map sexp_of_expr args);
        ]

let sexp_of_def : Program.def -> sexp = function
  | Program.Global { name; ty; init } ->
      L [ A "global"; A name; sexp_of_typ ty; sexp_of_value init ]
  | Program.Func { name; ty; body } ->
      L [ A "func"; A name; sexp_of_typ ty; sexp_of_expr body ]
  | Program.Page { name; arg_ty; init; render } ->
      L
        [
          A "page";
          A name;
          sexp_of_typ arg_ty;
          sexp_of_expr init;
          sexp_of_expr render;
        ]

let sexp_of_event : Wire.event -> sexp = function
  | Wire.Ev_tap { x; y } ->
      L [ A "tap"; A (string_of_int x); A (string_of_int y) ]
  | Wire.Ev_back -> L [ A "back" ]

let to_string (s : t) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "(snapshot";
  let field x =
    Buffer.add_string b "\n ";
    print_sexp b x
  in
  field (L [ A "version"; A (string_of_int version) ]);
  field (L (A "program" :: List.map sexp_of_def (Program.defs s.program)));
  field
    (L
       (A "store"
       :: List.map (fun (g, v) -> L [ A g; sexp_of_value v ]) s.store));
  field
    (L
       (A "stack"
       :: List.map (fun (p, v) -> L [ A p; sexp_of_value v ]) s.stack));
  field
    (L
       [
         A "fault";
         A
           (match s.fault with
           | None -> "none"
           | Some Session.Drop_next_event -> "drop"
           | Some Session.Duplicate_next_event -> "dup");
       ]);
  field (L (A "pending" :: List.map sexp_of_event s.pending));
  Buffer.add_string b ")\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let atom_of = function A s -> s | L _ -> fail "expected an atom"

let int_of x =
  match int_of_string_opt (atom_of x) with
  | Some v -> v
  | None -> fail "malformed integer %S" (atom_of x)

let float_of x =
  match float_of_string_opt (atom_of x) with
  | Some v -> v
  | None -> fail "malformed float %S" (atom_of x)

let eff_of = function
  | "p" -> Eff.Pure
  | "s" -> Eff.State
  | "r" -> Eff.Render
  | s -> fail "malformed effect %S" s

let rec typ_of : sexp -> Typ.t = function
  | A "num" -> Typ.Num
  | A "str" -> Typ.Str
  | L (A "tuple" :: ts) -> Typ.Tuple (List.map typ_of ts)
  | L [ A "fn"; a; A e; r ] -> Typ.Fn (typ_of a, eff_of e, typ_of r)
  | L [ A "list"; t ] -> Typ.List (typ_of t)
  | _ -> fail "malformed type"

let rec value_of : sexp -> Ast.value = function
  | L [ A "n"; f ] -> Ast.VNum (float_of f)
  | L [ A "s"; s ] -> Ast.VStr (atom_of s)
  | L (A "tup" :: vs) -> Ast.VTuple (List.map value_of vs)
  | L [ A "lam"; x; ty; e ] -> Ast.VLam (atom_of x, typ_of ty, expr_of e)
  | L (A "vlist" :: ty :: vs) -> Ast.VList (typ_of ty, List.map value_of vs)
  | _ -> fail "malformed value"

and expr_of : sexp -> Ast.expr = function
  | L [ A "val"; v ] -> Ast.Val (value_of v)
  | L [ A "var"; x ] -> Ast.Var (atom_of x)
  | L (A "tuple" :: es) -> Ast.Tuple (List.map expr_of es)
  | L [ A "app"; f; a ] -> Ast.App (expr_of f, expr_of a)
  | L [ A "fn"; f ] -> Ast.Fn (atom_of f)
  | L [ A "proj"; e; i ] -> Ast.Proj (expr_of e, int_of i)
  | L [ A "get"; g ] -> Ast.Get (atom_of g)
  | L [ A "set"; g; e ] -> Ast.Set (atom_of g, expr_of e)
  | L [ A "push"; p; e ] -> Ast.Push (atom_of p, expr_of e)
  | L [ A "pop" ] -> Ast.Pop
  | L [ A "boxed"; A "none"; e ] -> Ast.Boxed (None, expr_of e)
  | L [ A "boxed"; id; e ] ->
      Ast.Boxed (Some (Srcid.of_int (int_of id)), expr_of e)
  | L [ A "post"; e ] -> Ast.Post (expr_of e)
  | L [ A "setattr"; a; e ] -> Ast.SetAttr (atom_of a, expr_of e)
  | L [ A "prim"; name; L tys; L args ] ->
      Ast.Prim (atom_of name, List.map typ_of tys, List.map expr_of args)
  | _ -> fail "malformed expression"

let def_of : sexp -> Program.def = function
  | L [ A "global"; name; ty; init ] ->
      Program.Global
        { name = atom_of name; ty = typ_of ty; init = value_of init }
  | L [ A "func"; name; ty; body ] ->
      Program.Func { name = atom_of name; ty = typ_of ty; body = expr_of body }
  | L [ A "page"; name; arg_ty; init; render ] ->
      Program.Page
        {
          name = atom_of name;
          arg_ty = typ_of arg_ty;
          init = expr_of init;
          render = expr_of render;
        }
  | _ -> fail "malformed definition"

let event_of : sexp -> Wire.event = function
  | L [ A "tap"; x; y ] -> Wire.Ev_tap { x = int_of x; y = int_of y }
  | L [ A "back" ] -> Wire.Ev_back
  | _ -> fail "malformed pending event"

let binding_of (kind : string) : sexp -> string * Ast.value = function
  | L [ name; v ] -> (atom_of name, value_of v)
  | _ -> fail "malformed %s binding" kind

let of_string (text : string) : (t, string) result =
  try
    match parse_sexp text with
    | L (A "snapshot" :: L [ A "version"; v ] :: fields) -> (
        if int_of v <> version then
          fail "unsupported snapshot version %s (this host reads version %d)"
            (atom_of v) version;
        match fields with
        | [
         L (A "program" :: defs);
         L (A "store" :: store);
         L (A "stack" :: stack);
         L [ A "fault"; fault ];
         L (A "pending" :: pending);
        ] ->
            Ok
              {
                program = Program.of_defs (List.map def_of defs);
                store = List.map (binding_of "store") store;
                stack = List.map (binding_of "stack") stack;
                fault =
                  (match atom_of fault with
                  | "none" -> None
                  | "drop" -> Some Session.Drop_next_event
                  | "dup" -> Some Session.Duplicate_next_event
                  | s -> fail "unknown fault %S" s);
                pending = List.map event_of pending;
              }
        | _ -> Error "malformed snapshot fields")
    | _ -> Error "not a snapshot"
  with
  | Parse m -> Error m
  | Invalid_argument m -> Error m

(* ------------------------------------------------------------------ *)
(* Standalone programs                                                 *)
(* ------------------------------------------------------------------ *)

let program_to_string (p : Program.t) : string =
  let b = Buffer.create 1024 in
  print_sexp b (L (A "program" :: List.map sexp_of_def (Program.defs p)));
  Buffer.add_char b '\n';
  Buffer.contents b

let program_of_string (text : string) : (Program.t, string) result =
  try
    match parse_sexp (String.trim text) with
    | L (A "program" :: defs) -> Ok (Program.of_defs (List.map def_of defs))
    | _ -> Error "not a program"
  with
  | Parse m -> Error m
  | Invalid_argument m -> Error m

(* ------------------------------------------------------------------ *)
(* Capture / restore                                                   *)
(* ------------------------------------------------------------------ *)

let of_session ?(pending = []) (s : Session.t) : t =
  let st = Session.state s in
  {
    program = st.Live_core.State.code;
    store = Store.bindings st.Live_core.State.store;
    stack = st.Live_core.State.stack;
    fault = Session.pending_fault s;
    pending;
  }

let def_equal (a : Program.def) (b : Program.def) : bool =
  match (a, b) with
  | ( Program.Global { name = n1; ty = t1; init = v1 },
      Program.Global { name = n2; ty = t2; init = v2 } ) ->
      String.equal n1 n2 && Typ.equal t1 t2 && Ast.equal_value v1 v2
  | ( Program.Func { name = n1; ty = t1; body = b1 },
      Program.Func { name = n2; ty = t2; body = b2 } ) ->
      String.equal n1 n2 && Typ.equal t1 t2 && Ast.equal_expr b1 b2
  | ( Program.Page { name = n1; arg_ty = t1; init = i1; render = r1 },
      Program.Page { name = n2; arg_ty = t2; init = i2; render = r2 } ) ->
      String.equal n1 n2 && Typ.equal t1 t2 && Ast.equal_expr i1 i2
      && Ast.equal_expr r1 r2
  | _ -> false

let program_equal (p : Program.t) (q : Program.t) : bool =
  let dp = Program.defs p and dq = Program.defs q in
  List.compare_lengths dp dq = 0 && List.for_all2 def_equal dp dq

let restore ?program (cfg : Registry.config) (snap : t) :
    (Session.t, string) result =
  let program =
    match program with
    | Some p when program_equal p snap.program -> p
    | _ -> snap.program
  in
  match
    Session.restore ~width:cfg.Registry.width ?fuel:cfg.Registry.fuel
      ~cache:cfg.Registry.cache ~evaluator:cfg.Registry.evaluator
      ~fault:snap.fault
      ~store:(Store.of_bindings snap.store)
      ~stack:snap.stack program
  with
  | Ok s -> Ok s
  | Error e -> Error (Machine.error_to_string e)

let save (path : string) (s : t) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (to_string s);
  close_out oc;
  Sys.rename tmp path

let load (path : string) : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> of_string text
