(** Cross-cutting property tests: printer round-trips on random
    surface programs, layout geometric invariants on random box trees,
    and compilation determinism. *)

open Live_core

(* ------------------------------------------------------------------ *)
(* Random surface programs                                             *)
(* ------------------------------------------------------------------ *)

(* Renders abstract statement shapes to source text. *)
module Sast_builder : sig
  type expr =
    [ `Num of float
    | `Ref of string
    | `Bin of string * expr * expr
    | `Cmp of string * expr * expr
    | `Call of string * expr list ]

  type stmt =
    [ `Var of string * expr
    | `Assign of string * expr
    | `Post of expr
    | `Attr of string * expr
    | `If of expr * stmt list * stmt list
    | `For of string * stmt list
    | `Boxed of stmt list ]

  val to_source : stmt list -> string
end = struct
  type expr =
    [ `Num of float
    | `Ref of string
    | `Bin of string * expr * expr
    | `Cmp of string * expr * expr
    | `Call of string * expr list ]

  type stmt =
    [ `Var of string * expr
    | `Assign of string * expr
    | `Post of expr
    | `Attr of string * expr
    | `If of expr * stmt list * stmt list
    | `For of string * stmt list
    | `Boxed of stmt list ]

  let rec expr_str : expr -> string = function
    | `Num f -> Pretty.string_of_num f
    | `Ref x -> x
    | `Bin (op, a, b) ->
        Printf.sprintf "(%s %s %s)" (expr_str a) op (expr_str b)
    | `Cmp (op, a, b) ->
        Printf.sprintf "(%s %s %s)" (expr_str a) op (expr_str b)
    | `Call (f, args) ->
        Printf.sprintf "%s(%s)" f (String.concat ", " (List.map expr_str args))

  let rec stmt_str ind (s : stmt) : string =
    let pad = String.make ind ' ' in
    match s with
    | `Var (x, e) -> Printf.sprintf "%svar %s := %s\n" pad x (expr_str e)
    | `Assign (x, e) -> Printf.sprintf "%s%s := %s\n" pad x (expr_str e)
    | `Post e -> Printf.sprintf "%spost str(%s)\n" pad (expr_str e)
    | `Attr (a, e) -> Printf.sprintf "%sbox.%s := %s\n" pad a (expr_str e)
    | `If (c, b1, b2) ->
        Printf.sprintf "%sif %s {\n%s%s} else {\n%s%s}\n" pad (expr_str c)
          (block_str (ind + 2) b1)
          pad
          (block_str (ind + 2) b2)
          pad
    | `For (x, b) ->
        Printf.sprintf "%sfor %s from 0 to 3 {\n%s%s}\n" pad x
          (block_str (ind + 2) b)
          pad
    | `Boxed b ->
        Printf.sprintf "%sboxed {\n%s%s}\n" pad (block_str (ind + 2) b) pad

  and block_str ind b = String.concat "" (List.map (stmt_str ind) b)

  let to_source (body : stmt list) : string =
    Printf.sprintf "page start()\ninit { }\nrender {\n%s}\n"
      (block_str 2 body)
end


(** A generator of well-formed surface programs: one page, a few
    globals, statements drawn from the full statement grammar with
    type-correct expressions by construction (numbers only, for
    simplicity — the point is exercising the printer and the
    compilation pipeline, not the type checker). *)
module Gen_program = struct
  open QCheck2.Gen

  let ident =
    let* c = char_range 'a' 'z' in
    let* suffix = string_size ~gen:(char_range 'a' 'z') (int_range 0 4) in
    let name = Printf.sprintf "%c%s" c suffix in
    (* avoid keywords and builtins *)
    if
      List.mem_assoc name Live_surface.Token.keywords
      || Live_surface.Builtins.exists name
    then pure ("v_" ^ name)
    else pure name

  (* numeric expressions over a set of in-scope variables *)
  let rec num_expr (vars : string list) n : Sast_builder.expr t =
    if n <= 1 then
      oneof
        ((float_range 0.0 100.0 >|= fun f -> `Num (Float.round f))
        ::
        (match vars with
        | [] -> []
        | _ -> [ (oneofl vars >|= fun v -> `Ref v) ]))
    else
      let sub = num_expr vars (n / 2) in
      oneof
        [
          (float_range 0.0 100.0 >|= fun f -> `Num (Float.round f));
          map2 (fun a b -> `Bin ("+", a, b)) sub sub;
          map2 (fun a b -> `Bin ("*", a, b)) sub sub;
          map2 (fun a b -> `Bin ("-", a, b)) sub sub;
          map2 (fun a b -> `Cmp ("<", a, b)) sub sub;
          (sub >|= fun a -> `Call ("floor", [ a ]));
          map2 (fun a b -> `Call ("max", [ a; b ])) sub sub;
        ]

  (* statements; returns (stmt, vars') where vars' includes new locals *)
  let rec stmt (vars : string list) (depth : int) :
      (Sast_builder.stmt * string list) t =
    let leaf =
      oneof
        ([
           (let* x = ident in
            let* e = num_expr vars 4 in
            pure (`Var (x, e), x :: vars));
           (let* e = num_expr vars 4 in
            pure (`Post e, vars));
           (let* e = num_expr vars 3 in
            pure (`Attr ("margin", e), vars));
         ]
        @
        match vars with
        | [] -> []
        | _ ->
            [
              (let* x = oneofl vars in
               let* e = num_expr vars 4 in
               pure (`Assign (x, e), vars));
            ])
    in
    if depth <= 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 1,
            let* c = num_expr vars 3 in
            let* b1 = block vars (depth - 1) in
            let* b2 = block vars (depth - 1) in
            pure (`If (c, b1, b2), vars) );
          ( 1,
            let* x = ident in
            let* b = block (x :: vars) (depth - 1) in
            pure (`For (x, b), vars) );
          ( 1,
            let* b = block vars (depth - 1) in
            pure (`Boxed b, vars) );
        ]

  and block (vars : string list) (depth : int) : Sast_builder.stmt list t =
    let* n = int_range 1 4 in
    let rec go vars acc k =
      if k = 0 then pure (List.rev acc)
      else
        let* s, vars' = stmt vars depth in
        go vars' (s :: acc) (k - 1)
    in
    go vars [] n

  let program : string t =
    let* body = block [] 2 in
    pure (Sast_builder.to_source body)
end

let prop_printer_roundtrip_random =
  Helpers.qcheck ~count:150 "printer round-trips random programs"
    Gen_program.program (fun src ->
      match Live_surface.Compile.parse src with
      | Error e ->
          QCheck2.Test.fail_reportf "generated program does not parse: %s\n%s"
            (Live_surface.Compile.error_to_string e)
            src
      | Ok ast -> (
          let printed = Live_surface.Printer.program_to_string ast in
          match Live_surface.Compile.parse printed with
          | Error e ->
              QCheck2.Test.fail_reportf "printed program does not re-parse: %s"
                (Live_surface.Compile.error_to_string e)
          | Ok ast2 ->
              String.equal printed
                (Live_surface.Printer.program_to_string ast2)))

let prop_random_programs_compile_and_render =
  Helpers.qcheck ~count:100 "random programs compile, validate, and render"
    Gen_program.program (fun src ->
      match Live_surface.Compile.compile src with
      | Error e ->
          QCheck2.Test.fail_reportf "does not compile: %s\n%s"
            (Live_surface.Compile.error_to_string e)
            src
      | Ok c -> (
          match Machine.boot c.Live_surface.Compile.core with
          | Ok st ->
              State.display_valid st
              && State_typing.check_state st = Ok ()
          | Error Machine.Diverged -> true (* generated loops are bounded,
                                              but allow fuel caps *)
          | Error e ->
              QCheck2.Test.fail_reportf "boot failed: %s"
                (Machine.error_to_string e)))

let prop_compile_deterministic =
  Helpers.qcheck ~count:60 "compilation is deterministic"
    Gen_program.program (fun src ->
      match
        (Live_surface.Compile.compile src, Live_surface.Compile.compile src)
      with
      | Ok a, Ok b ->
          let da = Program.defs a.Live_surface.Compile.core in
          let db = Program.defs b.Live_surface.Compile.core in
          List.length da = List.length db
          && List.for_all2
               (fun x y ->
                 match (x, y) with
                 | ( Program.Global { name = n1; ty = t1; init = i1 },
                     Program.Global { name = n2; ty = t2; init = i2 } ) ->
                     n1 = n2 && Typ.equal t1 t2 && Ast.equal_value i1 i2
                 | ( Program.Func { name = n1; ty = t1; body = b1 },
                     Program.Func { name = n2; ty = t2; body = b2 } ) ->
                     n1 = n2 && Typ.equal t1 t2 && Ast.equal_expr b1 b2
                 | ( Program.Page { name = n1; render = r1; init = i1; _ },
                     Program.Page { name = n2; render = r2; init = i2; _ } )
                   ->
                     n1 = n2 && Ast.equal_expr r1 r2 && Ast.equal_expr i1 i2
                 | _ -> false)
               da db
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Layout invariants on random box trees                               *)
(* ------------------------------------------------------------------ *)

let gen_boxtree : Boxcontent.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf_text = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
  let attr =
    oneof
      [
        (int_range 0 3 >|= fun n ->
         Boxcontent.Attr ("margin", Ast.VNum (float_of_int n)));
        (int_range 0 2 >|= fun n ->
         Boxcontent.Attr ("padding", Ast.VNum (float_of_int n)));
        (bool >|= fun b ->
         Boxcontent.Attr ("border", Ast.vbool b));
        (oneofl [ "vertical"; "horizontal" ] >|= fun d ->
         Boxcontent.Attr ("direction", Ast.VStr d));
        (oneofl [ "left"; "center"; "right" ] >|= fun a ->
         Boxcontent.Attr ("align", Ast.VStr a));
      ]
  in
  sized
  @@ fix (fun self n ->
         let item =
           if n <= 1 then
             oneof
               [
                 (leaf_text >|= fun s -> Boxcontent.Leaf (Ast.VStr s));
                 attr;
               ]
           else
             frequency
               [
                 (3, leaf_text >|= fun s -> Boxcontent.Leaf (Ast.VStr s));
                 (2, attr);
                 ( 2,
                   list_size (int_range 0 4) (self (n / 3)) >|= fun items ->
                   Boxcontent.Box (None, List.concat items) );
               ]
         in
         list_size (int_range 0 5) item)

let rects_disjoint (a : Live_ui.Geometry.rect) (b : Live_ui.Geometry.rect) =
  Live_ui.Geometry.area (Live_ui.Geometry.intersect a b) = 0

let rect_inside (inner : Live_ui.Geometry.rect)
    (outer : Live_ui.Geometry.rect) =
  Live_ui.Geometry.equal
    (Live_ui.Geometry.intersect inner outer)
    inner
  || Live_ui.Geometry.area inner = 0

let prop_layout_containment =
  Helpers.qcheck ~count:200 "children lie inside their parent's inner box"
    gen_boxtree (fun tree ->
      let root = Live_ui.Layout.layout_page ~width:40 tree in
      let ok = ref true in
      Live_ui.Layout.iter_nodes
        (fun n ->
          List.iter
            (fun item ->
              match item with
              | Live_ui.Layout.Child c ->
                  if
                    not
                      (rect_inside c.Live_ui.Layout.frame
                         n.Live_ui.Layout.frame)
                  then ok := false
              | Live_ui.Layout.Text _ -> ())
            n.Live_ui.Layout.items)
        root;
      !ok)

let prop_layout_siblings_disjoint =
  Helpers.qcheck ~count:200 "sibling boxes do not overlap" gen_boxtree
    (fun tree ->
      let root = Live_ui.Layout.layout_page ~width:40 tree in
      let ok = ref true in
      Live_ui.Layout.iter_nodes
        (fun n ->
          let child_rects =
            List.filter_map
              (function
                | Live_ui.Layout.Child c -> Some c.Live_ui.Layout.outer
                | Live_ui.Layout.Text _ -> None)
              n.Live_ui.Layout.items
          in
          let rec pairs = function
            | [] -> ()
            | r :: rest ->
                List.iter
                  (fun r' -> if not (rects_disjoint r r') then ok := false)
                  rest;
                pairs rest
          in
          pairs child_rects)
        root;
      !ok)

let prop_hittest_consistent =
  Helpers.qcheck ~count:100 "nodes_at agrees with rect containment"
    gen_boxtree (fun tree ->
      let root = Live_ui.Layout.layout_page ~width:40 tree in
      (* probe a grid of points *)
      let ok = ref true in
      for x = 0 to 39 do
        for y = 0 to min 40 (Live_ui.Layout.total_height root) - 1 do
          let chain = Live_ui.Layout.nodes_at root ~x ~y in
          List.iter
            (fun (n : Live_ui.Layout.node) ->
              if not (Live_ui.Geometry.contains n.Live_ui.Layout.frame ~x ~y)
              then ok := false)
            chain
        done
      done;
      !ok)

let suite =
  [
    prop_printer_roundtrip_random;
    prop_random_programs_compile_and_render;
    prop_compile_deterministic;
    prop_layout_containment;
    prop_layout_siblings_disjoint;
    prop_hittest_consistent;
  ]
