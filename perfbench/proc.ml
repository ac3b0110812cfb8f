(* Child processes and the benchmark's clock. *)

let now = Unix.gettimeofday

external maxrss_kib : unit -> int * int = "perfbench_maxrss_kib"

(* Highest RSS, in MB, of this process and its waited-for children. *)
let peak_rss_mb () =
  let self, kids = maxrss_kib () in
  float_of_int (max self kids) /. 1024.0

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Wall time of [f ()] run in a forked child after an untimed
   [before ()]; the child reports it over a pipe and exits without
   running [at_exit]. *)
let time_in_child ?(before = ignore) f =
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let dt =
      try
        before ();
        snd (time f)
      with _ -> Float.nan
    in
    let oc = Unix.out_channel_of_descr w in
    Printf.fprintf oc "%h\n" dt;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = In_channel.input_all ic in
    close_in ic;
    ignore (waitpid_retry pid);
    Option.value ~default:Float.nan (float_of_string_opt (String.trim line))

(* Run [prog args], returning its exit status and standard output;
   standard error is passed through. *)
let capture prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  match
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w
      Unix.stderr
  with
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close r;
    Unix.close w;
    (Error (Unix.error_message e), "")
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    let st =
      match waitpid_retry pid with
      | Unix.WEXITED 0 -> Ok ()
      | Unix.WEXITED n -> Error (Printf.sprintf "%s exited %d" prog n)
      | Unix.WSIGNALED n | Unix.WSTOPPED n ->
        Error (Printf.sprintf "%s killed by signal %d" prog n)
    in
    (st, out)

(* First line of [prog args]'s output, or [""]. *)
let first_line prog args =
  match capture prog args with
  | Ok (), out -> (
    match String.split_on_char '\n' out with l :: _ -> String.trim l | [] -> "")
  | Error _, _ -> ""
