(** AT&T-syntax pretty printer.  [program_to_string] output is accepted
    by {!Parser.program}; the round trip preserves instructions and
    provenance (property-tested). *)

val string_of_mem : Instr.mem -> string

(** Render an operand at the given width (selects the register view). *)
val string_of_operand : Reg.size -> Instr.operand -> string

(** One instruction, without indentation or provenance comment.  SIMD
    instructions print in VEX/EVEX form; [Vptestmq512] prints as the
    two-statement line ["vptestmq %zmmA, %zmmB, %k1; kortestw %k1, %k1"]. *)
val string_of_instr : Instr.t -> string

(** Alias of {!string_of_instr}. *)
val instr_to_string : Instr.t -> string

(** Print one instruction with a tab indent; when [comments] (default
    true), non-original provenance is appended as "# dup", "# check" or
    "# instr", which {!Parser} restores. *)
val pp_ins : ?comments:bool -> Format.formatter -> Instr.ins -> unit

val pp_block : ?comments:bool -> Format.formatter -> Prog.block -> unit
val pp_func : ?comments:bool -> Format.formatter -> Prog.func -> unit
val pp_program : ?comments:bool -> Format.formatter -> Prog.t -> unit
val program_to_string : ?comments:bool -> Prog.t -> string
