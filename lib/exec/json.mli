(** The one JSON emitter behind every machine-readable report (metrics
    dumps, survivability campaigns, bench results — see [docs/FORMAT.md]).

    The repo carries no JSON dependency, so this is a small value type
    with a compact printer.  Every top-level report goes through
    {!document}, which stamps the shared ["schema"] / ["schema_version"]
    header consumers dispatch on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** printed shortest-round-trip; non-finite values print as [null]
          (JSON has no NaN/infinity) *)
  | String of t_string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** pre-rendered JSON text, printed verbatim: lets a caller render a
          value once and splice it into many documents.  Printer-only —
          {!of_string} never produces it, and the caller vouches that the
          text is one valid JSON value *)

and t_string = string

val schema_version : int
(** Version of the shared report envelope, bumped on breaking changes to
    any emitted schema.  Currently [2]: version 2 adds the scenario
    request envelope (serve op ["scenarios"]) and the scenario delta
    kinds; consumers accepting [v <= schema_version] keep reading
    version-1 documents unchanged. *)

val document : kind:string -> (string * t) list -> t
(** [document ~kind fields] is [Obj] with the standard header prepended:
    [{"schema": kind, "schema_version": n, ...fields}]. *)

val to_string : t -> string
(** Compact rendering (single line, [", "] / [": "] separators).  The
    output buffer is allocated once, at a bound computed from the tree. *)

val of_string : string -> (t, string) result
(** Strict JSON parser (the inverse of {!to_string}, accepting any
    standard JSON text): one value, no trailing content, no comments or
    trailing commas.  Numbers parse to [Int] when they are written as
    integers and fit in [int], otherwise to [Float]; [\u] escapes decode
    to UTF-8.  Errors carry the byte offset of the failure.  Arrays and
    objects may nest at most {!max_depth} deep; a deeper document is an
    [Error], so no input can exhaust the stack.  Linear in the input:
    each escape-free run of a string is copied once. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts: [512]. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] on
    a missing key or a non-object. *)

val add_to_buffer : Buffer.t -> t -> unit

val escape_string : string -> string
(** JSON string-body escaping (quotes, backslash, control characters);
    returns its argument itself when no byte needs escaping. *)
