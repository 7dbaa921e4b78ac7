(** A structured lint finding: rule id, location, message.  Every
    finding is an error: it fails the run unless the allowlist justifies
    it.

    File paths are normalized at construction (leading ["./"]/["../"]
    segments stripped) so findings produced from the repository root and
    from a test sandbox compare and suppress identically. *)

type t = {
  rule : string;
  file : string;  (** normalized, '/'-separated *)
  line : int;  (** 1-based; [0] = whole-file finding *)
  col : int;  (** 0-based (compiler convention); [0] for whole-file *)
  message : string;
}

val normalize_path : string -> string
(** Rewrites ['\\'] to ['/'] and strips leading ["."], [".."] and empty
    segments. *)

val make : rule:string -> file:string -> line:int -> col:int -> string -> t

val of_location : rule:string -> file:string -> Location.t -> string -> t
(** Anchors the finding at the location's start position. *)

val compare : t -> t -> int
(** Orders by (file, line, col, rule, message) — the report order. *)

val to_text : t -> string
(** [file:line:col: [rule] error: message] — clickable in editors. *)
