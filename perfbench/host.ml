(* Host fingerprint: figures from different hosts are never compared
   unlabelled. *)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.trim (String.sub l 0 i) = "model name" ->
             Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  | exception Sys_error _ -> "unknown"

let fields () =
  [
    ("cpu", cpu_model ());
    ("nproc", Proc.first_line "nproc" []);
    ("ocaml", Sys.ocaml_version);
    ("gcc", Proc.first_line "gcc" [ "--version" ]);
    ("as", Proc.first_line "as" [ "--version" ]);
    ("kernel", Proc.first_line "uname" [ "-srm" ]);
  ]
