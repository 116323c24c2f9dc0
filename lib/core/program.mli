(** Program code [C] (Fig. 7): globals, functions and pages, with
    O(1) lookup by name. *)

type def =
  | Global of { name : Ident.global; ty : Typ.t; init : Ast.value }
      (** [global g : tau = v] *)
  | Func of { name : Ident.func; ty : Typ.t; body : Ast.expr }
      (** [fun f : tau is e]; [ty] is the declared arrow type *)
  | Page of {
      name : Ident.page;
      arg_ty : Typ.t;
      init : Ast.expr;  (** typed [tau -s-> ()] by T-C-PAGE *)
      render : Ast.expr;  (** typed [tau -r-> ()] by T-C-PAGE *)
    }

type t

val of_defs : def list -> t
val empty : t
val defs : t -> def list

val uid : t -> int
(** A tag distinct for every program value built, so a hash of its
    physical identity: two programs with the same definitions built
    twice get different tags.  Keys the compile cache. *)

val def_name : def -> string

val find : t -> string -> def option
val mem : t -> string -> bool

val find_global : t -> Ident.global -> (Typ.t * Ast.value) option
val find_func : t -> Ident.func -> (Typ.t * Ast.expr) option

val find_page : t -> Ident.page -> (Typ.t * Ast.expr * Ast.expr) option
(** [C(p) = (tau, f_i, f_r)] — the paper's page-lookup shorthand. *)

val globals : t -> (Ident.global * Typ.t * Ast.value) list
val functions : t -> (Ident.func * Typ.t * Ast.expr) list
val pages : t -> (Ident.page * Typ.t * Ast.expr * Ast.expr) list

val with_def : t -> def -> t
(** Replace (by name) or append one definition — the editor's
    building block for producing the next program version. *)

val without_def : t -> string -> t

val pp_def : Format.formatter -> def -> unit
val pp : Format.formatter -> t -> unit
