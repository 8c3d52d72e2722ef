(** Textual interchange format for SoC specifications, voltage-island
    assignments and usage scenarios.

    A bundle file is line-oriented; [#] starts a comment.  Example:

    {v
    soc my-design
    flit_bits 32
    intermediate_island true
    core 0 cpu processor area 5.0 freq 500 dyn 110 leak 60
    core 1 mem memory area 3.0 freq 400 dyn 55
    flow 0 1 bw 800 lat 12
    flow 1 0 bw 650 lat 12
    islands 2
    assign 0 0
    assign 1 1
    always_on 1
    scenario idle 0.5 1
    v}

    Parsing is strict: unknown directives, bad arities and inconsistent
    ids are reported with their line number.  Printing followed by parsing
    reproduces the bundle exactly, floats bit-for-bit (round-trip
    property-tested). *)

type bundle = {
  soc : Soc_spec.t;
  vi : Vi.t option;            (** present iff the file has an [islands] section *)
  scenarios : Scenario.t list;
}

val parse : string -> (bundle, string) result
(** Parse a bundle from file contents. *)

val to_string : bundle -> string
(** Render a bundle in the format above. *)

val print_float : Buffer.t -> float -> unit
(** The rendering {!to_string} gives every float: an integer below 1e15
    in magnitude as such, anything else with the least precision in
    9..17 ([%.*g]) that parses back to the identical double. *)

val load : string -> (bundle, string) result
(** Read and parse a file; I/O errors are reported in the [Error] case. *)

val save : string -> bundle -> (unit, string) result
(** Write [to_string] to the given path atomically: the contents go to a
    fresh temp file in the same directory which is then renamed over the
    target, so readers never observe a half-written spec.  I/O errors are
    reported in the [Error] case (and the temp file is removed). *)

val equal_bundle : bundle -> bundle -> bool
(** Structural equality, with floats compared exactly — printing picks
    the shortest rendering that round-trips bit-for-bit, so this is what
    the round-trip test checks. *)
