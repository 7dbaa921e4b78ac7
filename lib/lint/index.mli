(** The cross-module value index: per-module value definitions, their
    direct allocation sites, and the raw references their bodies make —
    the syntactic substrate the call graph (effects.ml) and the
    interprocedural rules (r11–r14) resolve over.

    Deliberately syntactic and over-approximate: a value name defined by
    two modules resolves to every candidate, and first-class dispatch
    through record fields (the [Online] algorithm interface) is
    invisible — which is why the hot-root list names both the engine
    entry points and the solver step [Dynamic_alg.serve] explicitly.
    Deterministic: nodes and tables sort, no clock. *)

type site_kind =
  | Alloc of string  (** what is allocated, for the finding message *)
  | Partial of string
      (** which partial stdlib idiom is called (from the intrinsic table
          in effects.ml) *)

type site = {
  s_kind : site_kind;
  s_line : int;
  s_col : int;
  s_handled : bool;  (** under a [try] / [match ... with exception] *)
}

type reference = {
  r_path : string list;
      (** alias-expanded dotted path, [Stdlib] and library wrappers
          stripped *)
  r_line : int;
  r_col : int;
  r_handled : bool;
}

type node = {
  id : string;
      (** ["<file>#[Sub.]<name>"], unique and sortable; a name bound
          again later in the same file carries an ["@<line>"] suffix *)
  display : string;  (** ["Mod.name"] or ["Mod.Sub.name"] *)
  file : string;
  modname : string;
  name : string;
  n_line : int;
  is_function : bool;
  is_alias : bool;  (** non-function whose body is a bare ident *)
  sites : site list;  (** in source order *)
  refs : reference list;  (** in source order *)
}

type exposed = {
  e_file : string;
  e_modname : string;
  e_name : string;
  e_line : int;
  e_col : int;
}

type t

val of_sources : (string * string) list -> t
(** [(path, source)] pairs; [.mli] files contribute exposed values,
    [.ml] files contribute nodes.  Unparseable sources are skipped here
    (the engine reports them as [parse-error] findings). *)

val nodes : t -> node list
(** Sorted by id. *)

val exposed : t -> exposed list
(** Every value declared in an indexed interface, sorted by (file, line). *)

val resolve :
  t -> file:string -> string list -> [ `Nodes of string list | `Extern of string list ]
(** Resolve an alias-expanded reference path from [file]: bare names
    prefer same-file definitions; [M.v] matches every indexed module
    named [M].  Unresolved paths come back as [`Extern] for the
    intrinsic table. *)

val references : t -> (string option * string) list
(** Every (module, value) pair the indexed implementations reference,
    alias-expanded and deduplicated — the coverage evidence for
    r13-comparator-coverage when built over the test file set, and
    r14-unused-export's when built over the unscanned sibling
    directories. *)
