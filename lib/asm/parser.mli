(** Parser for the AT&T-syntax subset emitted by {!Printer}.  Intended
    for round-tripping protected programs through text (tests, CLI,
    external inspection), not for arbitrary compiler output. *)

exception Parse_error of string

(** Parse one instruction line (without label or directive); trailing
    "#" comments are ignored.  SIMD instructions are read in their VEX
    spellings only ([vmovq], [vpinsrq], [vpextrq]); the legacy-SSE
    [movq]-to/from-XMM, [pinsrq] and [pextrq] are parse errors, and
    [vpinsrq]'s merge source must be its destination.  [Vptestmq512] is
    the one two-statement line, ["vptestmq %zmmA, %zmmB, %k1; kortestw
    %k1, %k1"].  Raises {!Parse_error}. *)
val parse_instr : string -> Instr.t

(** Parse a whole program in {!Printer.pp_program} format: ".globl"
    directives open functions, "label:" lines open blocks, and
    provenance is restored from the trailing comment markers.  Raises
    {!Parse_error}. *)
val program : string -> Prog.t
