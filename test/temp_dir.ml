(* Temporary directories for tests that write files: made fresh under the
   temp directory and removed, with their contents, however the test
   ends. *)

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [with_dir prefix f] runs [f] on a new directory named after
   [prefix]. *)
let with_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)
