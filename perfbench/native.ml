(* Emitted code on silicon: each (kernel, technique) program is printed
   by the program's own Printer, linked with harness.c, and driven as a
   long-lived child process over a line protocol (see harness.c). *)

module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Backend = Ferrum_backend.Backend

(* The four configurations in metric-name form, raw first. *)
let techniques =
  [
    ("raw", None);
    ("ir_eddi", Some Technique.Ir_level_eddi);
    ("hybrid", Some Technique.Hybrid_assembly_eddi);
    ("ferrum", Some Technique.Ferrum);
  ]

let program technique m =
  match technique with
  | None -> (Pipeline.raw m).Pipeline.program
  | Some t -> (Pipeline.protect t m).Pipeline.program

let available () =
  if Sys.os_type <> "Unix" then Error "native timing needs x86-64 Linux"
  else
    match Proc.first_line "uname" [ "-sm" ] with
    | "Linux x86_64" -> (
      match (Proc.capture "gcc" [ "--version" ], Proc.capture "as" [ "--version" ]) with
      | (Ok (), _), (Ok (), _) -> Ok ()
      | _ -> Error "native timing needs gcc and as on PATH")
    | host -> Error (Printf.sprintf "native timing needs x86-64 Linux, host is %S" host)

let harness_source = Filename.concat "perfbench" "harness.c"

(* Compile the harness once per build directory. *)
let harness_object ~dir =
  let obj = Filename.concat dir "harness.o" in
  match
    Proc.capture "gcc"
      [ "-O2"; Printf.sprintf "-DGLOBAL_BASE=%d" Backend.global_base; "-c";
        harness_source; "-o"; obj ]
  with
  | Ok (), _ -> Ok obj
  | Error e, _ -> Error e

(* The harness calls the kernel through a trampoline, so the program's
   entry is renamed from [main]. *)
let rename_main asm =
  String.split_on_char '\n' asm
  |> List.map (function
       | "\t.globl main" -> "\t.globl ferrum_kernel"
       | "main:" -> "ferrum_kernel:"
       | l -> l)
  |> String.concat "\n"

(* The assembly of one configuration of IR module [m], as linked. *)
let emit technique m = rename_main (Ferrum_asm.Printer.program_to_string (program technique m))

let link ~dir ~harness ~name asm =
  let src = Filename.concat dir (name ^ ".s") in
  let exe = Filename.concat dir name in
  Out_channel.with_open_text src (fun oc -> output_string oc asm);
  match
    Proc.capture "gcc" [ "-no-pie"; "-Wa,--noexecstack"; harness; src; "-o"; exe ]
  with
  | Ok (), _ -> Ok exe
  | Error e, _ -> Error e

type kernel = {
  pid : int;
  oc : out_channel;
  ic : in_channel;
  output : int64 list;  (** what the first call printed *)
}

let parse_output line =
  match String.split_on_char ' ' line with
  | "out" :: vs -> (
    try Ok (List.map Int64.of_string vs)
    with Failure _ -> Error ("bad kernel output: " ^ line))
  | _ -> Error ("bad kernel output: " ^ line)

(* Kernels started and not yet stopped, so an aborted run can still
   stop them all. *)
let running : kernel list ref = ref []

(* Start a kernel process; it runs the kernel once and reports the
   output. *)
let start exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  match Unix.create_process exe [| exe |] in_r out_w Unix.stderr with
  | exception Unix.Unix_error (e, _, _) ->
    List.iter Unix.close [ in_r; in_w; out_r; out_w ];
    Error (Unix.error_message e)
  | pid -> (
    Unix.close in_r;
    Unix.close out_w;
    let k =
      {
        pid;
        oc = Unix.out_channel_of_descr in_w;
        ic = Unix.in_channel_of_descr out_r;
        output = [];
      }
    in
    let line = try Ok (input_line k.ic) with End_of_file -> Error "kernel died" in
    match Result.bind line parse_output with
    | Ok output ->
      let k = { k with output } in
      running := k :: !running;
      Ok k
    | Error e ->
      close_out_noerr k.oc;
      close_in_noerr k.ic;
      ignore (Proc.waitpid_retry pid);
      Error (Printf.sprintf "%s: %s" exe e))

(* Close the kernel's input and reap it; [Error] unless it exited 0
   (3: a checker fired, 4: a call's output changed). *)
let stop k =
  running := List.filter (fun r -> r.pid <> k.pid) !running;
  close_out_noerr k.oc;
  close_in_noerr k.ic;
  match Proc.waitpid_retry k.pid with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "kernel exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "kernel killed by signal %d" n)

let command k line =
  try
    output_string k.oc line;
    output_char k.oc '\n';
    flush k.oc;
    Ok (input_line k.ic)
  with Sys_error _ | End_of_file -> Error "kernel died"

(* Size a batch to about [us] microseconds; returns calls per batch. *)
let calibrate k us =
  match command k (Printf.sprintf "cal %g" us) with
  | Ok line -> (
    match String.split_on_char ' ' line with
    | [ "calls"; n ] -> Option.to_result ~none:line (int_of_string_opt n)
    | _ -> Error line)
  | Error e -> Error e

(* Time [n] batches; ns per call of each. *)
let time k n =
  match command k (Printf.sprintf "time %d" n) with
  | Ok line -> (
    match String.split_on_char ' ' line with
    | "batch" :: xs -> (
      try Ok (List.map float_of_string xs) with Failure _ -> Error line)
    | _ -> Error line)
  | Error e -> Error e
