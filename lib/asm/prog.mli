(** Assembly program structure: labelled basic blocks grouped into
    functions.  Control falls through from the end of a block to the
    next block in list order unless the last instruction is a barrier
    (unconditional jump or return), exactly as in assembly text. *)

type block = { label : string; insns : Instr.ins list }

type func = { fname : string; blocks : block list }

type t = { funcs : func list; entry : string }

(** Reserved label reached by checkers on a mismatch; the machine halts
    with outcome [Detected] when control transfers here (the paper's
    listings use the same name). *)
val exit_function_label : string

(** Builtin recognised by the machine: appends %rdi to the observable
    program output. *)
val builtin_print : string

(** Builtin recognised by the machine: halts with outcome [Detected]
    (used by the IR-level detector blocks). *)
val builtin_detect : string

val block : string -> Instr.ins list -> block
val func : string -> block list -> func

(** Build a program; the entry function defaults to ["main"]. *)
val program : ?entry:string -> func list -> t

val find_func : t -> string -> func option

val num_instructions_func : func -> int

(** [fold_insns f acc t] folds [f] over every instruction in layout
    order — function order, then block order, then instruction order
    within the block.  This is the order the machine's loader assigns
    static indices in, so a visitor that counts calls reproduces each
    instruction's global index (the static-analysis flattener and the
    fault injector both rely on this agreement). *)
val fold_insns : ('a -> func -> block -> Instr.ins -> 'a) -> 'a -> t -> 'a

(** Static instruction count of the whole program (the paper's §IV-B3
    correlates FERRUM's transform time with this number). *)
val num_instructions : t -> int

val map_funcs : (func -> func) -> t -> t

(** Block labels of a function, in layout order. *)
val labels_of_func : func -> string list

exception Ill_formed of string

(** Raise {!Ill_formed} with a formatted message. *)
val ill_formed : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Structural validation: unique labels, resolvable jump targets and
    callees, legal scale factors, and no function whose control falls
    off the end.  Raises {!Ill_formed} otherwise. *)
val validate : t -> unit

(** Pre-resolved control-flow target of an instruction. *)
type link =
  | L_none  (** not a control transfer, or an unresolved target *)
  | L_target of int  (** jmp/jcc destination index *)
  | L_call of int  (** callee entry index *)
  | L_detect  (** transfer to the detector *)
  | L_print  (** the [print_i64] builtin *)

(** A program flattened to static indices. *)
type flat = {
  code : Instr.ins array;
  links : link array;
  pos : (string * string * int) array Lazy.t;
      (** function, block label and offset in the block, per index
          (built on demand: loading does not need it) *)
  label_index : (string, int) Hashtbl.t;  (** block label -> first index *)
  func_index : (string, int) Hashtbl.t;  (** function -> entry index *)
}

(** Flatten in {!fold_insns} order and resolve jump and call targets
    program-wide.  This is the one definition of static indices: the
    machine's loader, the fault injector and the static analyses all
    agree on it.  Unresolved targets link as [L_none] (the loader
    rejects them, the linter tolerates them); a block label defined
    twice in the program raises {!Ill_formed}. *)
val flatten : t -> flat

(** [(originals, dups, checks, instrumentation)] instruction counts. *)
val provenance_counts : t -> int * int * int * int
