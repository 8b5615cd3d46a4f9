(* Spawning the ses binary and accounting for it. Every child is reaped
   with wait4(2), which reports that child's own CPU time.

   Its peak RSS is read from /proc instead, as the VmHWM of the child's
   own address space. wait4's ru_maxrss does not do here: posix_spawn
   runs the child in the parent's address space until exec, and exec
   folds that address space's high-water mark into the child's
   ru_maxrss, so a child smaller than the driver would report the
   driver's peak. *)

external wait4 : int -> int * float * float = "e2e_wait4"

external now : unit -> float = "e2e_monotonic"

type usage = {
  status : int;  (** exit code, or -signal *)
  cpu_s : float;  (** user + system *)
}

(* Children not yet reaped; killed and reaped at exit, so no run leaves
   a process behind even when it fails. *)
let live : int list ref = ref []

let reap pid =
  let status, utime, stime = wait4 pid in
  live := List.filter (fun p -> p <> pid) !live;
  { status; cpu_s = utime +. stime }

(* The high-water RSS of a live process, in MB; [None] once it has
   exited. *)
let peak_rss_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Option.map
                (fun kb -> float_of_int kb /. 1024.)
                (int_of_string_opt (String.trim (List.hd (String.split_on_char 'k' v))))
          | _ -> None)
        (String.split_on_char '\n' text)

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Starts [prog args] with stdin from /dev/null and stdout on a pipe;
   returns the pid and the read end. *)
let spawn ?(stderr = Unix.stderr) prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      (Lazy.force devnull) w stderr
  in
  live := pid :: !live;
  Unix.close w;
  (pid, r)

(* A line of output, stamped with the time the read that completed it
   returned. *)
type line = { text : string; at : float }

(* Splits the bytes of successive reads into stamped lines. *)
type splitter = { partial : Buffer.t; mutable lines : line list (* newest first *) }

let splitter () = { partial = Buffer.create 256; lines = [] }

let push sp chunk ~at =
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if Char.equal c '\n' then begin
        Buffer.add_substring sp.partial chunk !start (i - !start);
        sp.lines <- { text = Buffer.contents sp.partial; at } :: sp.lines;
        Buffer.clear sp.partial;
        start := i + 1
      end)
    chunk;
  Buffer.add_substring sp.partial chunk !start (String.length chunk - !start)

let take_lines sp =
  let l = List.rev sp.lines in
  sp.lines <- [];
  l

let read_buf = Bytes.create 65536

(* One read; [None] at end of file. *)
let read_chunk fd =
  match Unix.read fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> None
  | n -> Some (Bytes.sub_string read_buf 0 n)

(* Reads [fd] to end of file: the stamped lines and the byte count.
   [poll] runs at least every 10 ms while waiting. *)
let read_all ?(poll = ignore) fd =
  let sp = splitter () in
  let bytes = ref 0 in
  let rec go () =
    poll ();
    match Unix.select [ fd ] [] [] 0.01 with
    | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> go ()
    | _ -> (
        match read_chunk fd with
        | None -> ()
        | Some chunk ->
            bytes := !bytes + String.length chunk;
            push sp chunk ~at:(now ());
            go ())
  in
  go ();
  if Buffer.length sp.partial > 0 then
    sp.lines <- { text = Buffer.contents sp.partial; at = now () } :: sp.lines;
  (take_lines sp, !bytes)

type finished = {
  lines : line list;
  out_bytes : int;
  spawned : float;
  exited : float;  (** after stdout is drained and the child reaped *)
  usage : usage;
  peak_rss_mb : float;  (** the last VmHWM sampled before exit *)
}

(* A command still running after this long is killed, so a hung run
   fails its checks instead of outliving its time limit. *)
let run_limit = 150.

(* Runs a command to completion, collecting its stamped stdout and
   sampling its peak RSS every 10 ms. *)
let run ?stderr prog args =
  let spawned = now () in
  let pid, out = spawn ?stderr prog args in
  let peak = ref 0. in
  let poll () =
    Option.iter (fun mb -> peak := Float.max !peak mb) (peak_rss_mb pid);
    if now () -. spawned > run_limit then
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
  in
  let lines, out_bytes =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () -> read_all ~poll out)
  in
  let usage = reap pid in
  { lines; out_bytes; spawned; exited = now (); usage; peak_rss_mb = !peak }
