(* The benchmark of the MaxRS daemon.

   Starts the real [maxrs_serverd] binary as a separate process, drives
   it over a Unix socket with [Client.request] (one round trip, no
   retries, so every error reply or transport failure is a failed
   operation) in a closed loop, checks every reply against the
   benchmark's own oracles after the timed phase, and prints the
   metrics as one JSON object on the last line of stdout.

   Usage (from the repository root, after building):
     bench.exe --workload solve_mix|session_write|session_read
               --seed N --seconds S --trace 0|1 --bin-dir DIR

   [--trace 0] prints the end-to-end metrics. [--trace 1] runs the
   workload twice, without and with [MAXRS_STATS=1] in the daemon's
   environment, then replays the same inputs in-process through each
   layer's public functions and prints the per-layer metrics. *)

module Proto = Maxrs_server.Proto
module Client = Maxrs_server.Client
module Netio = Maxrs_server.Netio
module Samples = Measure.Samples
module Spans = Measure.Spans

let mono_s = Measure.mono_s

(* {1 Child processes} *)

let children : int list ref = ref []

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, st ->
      children := List.filter (( <> ) pid) !children;
      st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      children := List.filter (( <> ) pid) !children;
      Unix.WEXITED 0

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid : Unix.process_status)

(* SIGTERM is the daemon's clean path (drain, flush, exit 0); a daemon
   that has not left after 10 s is killed. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = mono_s () +. 10. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when mono_s () < deadline ->
        Unix.sleepf 0.005;
        go ()
    | 0, _ -> kill9 pid
    | _ -> children := List.filter (( <> ) pid) !children
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let () =
  at_exit (fun () -> List.iter kill9 !children);
  let stop _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The daemon sees none of the caller's MAXRS_* settings, so an ambient
   variable cannot change what is measured; [stats] turns on the
   daemon's own recording. *)
let daemon_env ~stats =
  let keep v =
    not (String.length v >= 6 && String.sub v 0 6 = "MAXRS_")
  in
  let base = Array.to_list (Unix.environment ()) |> List.filter keep in
  Array.of_list (if stats then "MAXRS_STATS=1" :: base else base)

let spawn ~env ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) env null out out)
  in
  children := pid :: !children;
  pid

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* {1 Files} *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Bytes in the session's files: the WAL and its snapshots. *)
let session_bytes ~dir =
  Array.fold_left
    (fun acc f ->
      if String.length f >= 5 && String.sub f 0 5 = "s.wal" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* Peak resident set of a process, from its [VmHWM] line. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Float.of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> Float.nan
      in
      go ())

(* The machine's CPU time counters ([/proc/stat]): the share stolen by
   the hypervisor is printed with every run, since on a shared virtual
   machine every timing here moves with it. *)
let cpu_times () =
  try
    let ic = open_in "/proc/stat" in
    let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    String.split_on_char ' ' l |> List.filter (( <> ) "") |> List.tl |> List.map float_of_string
    |> Array.of_list
  with _ -> [||]

let steal_pct before after =
  if Array.length before < 8 || Array.length after < 8 then Float.nan
  else
    (* user nice system idle iowait irq softirq steal: the stolen share
       of the time some vCPU wanted to run *)
    let d = Array.mapi (fun i a -> after.(i) -. a) (Array.sub before 0 8) in
    let busy = d.(0) +. d.(1) +. d.(2) +. d.(5) +. d.(6) in
    100. *. d.(7) /. (busy +. d.(7))

(* {1 Daemon} *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  bin_dir : string;
  dir : string;  (** scratch directory of this run, inside the checkout *)
}

let serverd c = Filename.concat c.bin_dir "maxrs_serverd.exe"
let cli c = Filename.concat c.bin_dir "maxrs_cli.exe"

type daemon = { pid : int; addr : Netio.addr; wal : string option }

(* Launch [maxrs_serverd serve] at its defaults (2 workers, fsync
   always, snapshot every 1000 ops, read-tier index on) and return once
   a [Ping] has succeeded. *)
let start_daemon c ~stats ~wal =
  let sock = Filename.concat c.dir "d.sock" in
  let args =
    [ "serve"; "--addr"; "unix:" ^ sock ]
    @ match wal with Some w -> [ "--wal"; w ] | None -> []
  in
  let pid =
    spawn ~env:(daemon_env ~stats) ~log:(Filename.concat c.dir "daemon.log")
      (serverd c) args
  in
  let d = { pid; addr = Netio.Unix_sock sock; wal } in
  let cl = Client.create d.addr in
  let deadline = mono_s () +. 120. in
  let rec wait () =
    match Client.request cl Proto.Ping with
    | Ok Proto.Pong -> ()
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            children := List.filter (( <> ) pid) !children;
            die "daemon exited during start-up (see %s/daemon.log)" c.dir);
        if mono_s () > deadline then die "daemon did not answer a Ping";
        (* A launch takes about 3 ms: a coarser poll would round it. *)
        Unix.sleepf 0.0001;
        wait ()
  in
  wait ();
  Client.close cl;
  d

(* Bulk-load the preload with [maxrs_cli session] into a fresh WAL. *)
let bulk_load c ~trace ~wal =
  let pid =
    spawn ~env:(daemon_env ~stats:false) ~log:(Filename.concat c.dir "load.log") (cli c)
      [
        "session"; "--wal"; wal; "-i"; trace; "--final-snapshot"; "--fsync"; "never";
        "--shifts"; string_of_int Gen.session_shifts;
      ]
  in
  match reap pid with
  | Unix.WEXITED 0 -> ()
  | _ -> die "maxrs_cli session failed (see %s/load.log)" c.dir

let clear_session c =
  Array.iter
    (fun f ->
      if String.length f >= 5 && String.sub f 0 5 = "s.wal" then
        Sys.remove (Filename.concat c.dir f))
    (Sys.readdir c.dir)

(* One set-up: for the session workloads, bulk-load the preload into a
   fresh WAL; then launch the daemon and wait for the first Ping. *)
let setup c ~stats ~session =
  match session with
  | None ->
      let t0 = mono_s () in
      let d = start_daemon c ~stats ~wal:None in
      (d, mono_s () -. t0)
  | Some trace ->
      clear_session c;
      let wal = Filename.concat c.dir "s.wal" in
      let t0 = mono_s () in
      bulk_load c ~trace ~wal;
      let d = start_daemon c ~stats ~wal:(Some wal) in
      (d, mono_s () -. t0)

(* {1 Results} *)

type block = {
  rate : float;  (** ops per second *)
  p50 : float;  (** latency quantiles, seconds *)
  p90 : float;
  steal : float;  (** share of CPU time the hypervisor took, percent *)
}


type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** replies that failed a check *)
  mutable errors : string list;  (** first few failure reasons *)
  lat : Samples.t;
      (** seconds: every measured op; for [solve_mix], every measured
          round of the four solve families *)
  blocks : block Queue.t;  (** the measured blocks, in order *)
  family_lat : Samples.t array;  (** [solve_mix]: single solves, by family *)
  read_lat : Samples.t;
  write_lat : Samples.t;
  mutable measured : int;
  mutable elapsed : float;
  setups : Samples.t;  (** every set-up of the run, seconds *)
  mutable rss_mb : float;
  mutable disk_mb : float;
  mutable recover_s : float;
  mutable steal_pct : float;  (** CPU stolen from the machine, measured phase *)
  mutable stats : Proto.server_stats option;
  replies : Proto.reply Queue.t;  (** a sample, for the reply codec *)
  requests : Proto.request Queue.t;
  range_epochs : (int, unit) Hashtbl.t;
  mutable range_n : int;
  mutable range_indexed : int;
  mutable range_lag_sum : int;
  mutable range_mismatch : int;
  ping_rtt : Samples.t;
}

let new_run () =
  {
    attempted = 0;
    failed = 0;
    wrong = 0;
    errors = [];
    lat = Samples.create ();
    blocks = Queue.create ();
    family_lat = Array.init (Array.length Gen.families) (fun _ -> Samples.create ());
    read_lat = Samples.create ();
    write_lat = Samples.create ();
    measured = 0;
    elapsed = 0.;
    setups = Samples.create ();
    rss_mb = Float.nan;
    disk_mb = Float.nan;
    recover_s = Float.nan;
    steal_pct = Float.nan;
    stats = None;
    replies = Queue.create ();
    requests = Queue.create ();
    range_epochs = Hashtbl.create 16;
    range_n = 0;
    range_indexed = 0;
    range_lag_sum = 0;
    range_mismatch = 0;
    ping_rtt = Samples.create ();
  }

let note r ok =
  r.attempted <- r.attempted + 1;
  match ok with
  | Ok () -> ()
  | Error why ->
      r.failed <- r.failed + 1;
      if List.length r.errors < 5 then r.errors <- why :: r.errors

let note_wrong r = function
  | Ok () -> note r (Ok ())
  | Error _ as e ->
      r.wrong <- r.wrong + 1;
      note r e

let keep_sample r req reply =
  if Queue.length r.requests < 512 then Queue.add req r.requests;
  match reply with
  | Ok rep when Queue.length r.replies < 512 -> Queue.add rep r.replies
  | _ -> ()

let client_error e = Error (Client.error_to_string e)

(* Close a measured block of [ops] operations that began at latency
   sample [first] and lasted [dt] seconds. *)
let close_block r ~first ~ops ~dt ~cpu =
  let n = Samples.count r.lat - first in
  let s = Array.sub r.lat.Samples.a first n in
  Array.sort Float.compare s;
  let b =
    {
      rate = Float.of_int ops /. dt;
      p50 = Samples.quantile_sorted s 0.5;
      p90 = Samples.quantile_sorted s 0.9;
      steal = steal_pct cpu (cpu_times ());
    }
  in
  Queue.add b r.blocks

(* The daemon's own view at the end of the measured phase: its peak
   resident set, its [Stats] reply and, when [ping], the round trip of
   a bare [Ping]. *)
let observe r d cl ~ping =
  r.rss_mb <- vm_hwm_mb d.pid;
  (match Client.request cl Proto.Stats with
  | Ok (Proto.Stats_reply s) -> r.stats <- Some s
  | _ -> ());
  if ping then
    for _ = 1 to 200 do
      let t0 = mono_s () in
      (match Client.request cl Proto.Ping with
      | Ok Proto.Pong -> ()
      | _ -> die "ping failed");
      Samples.add r.ping_rtt (mono_s () -. t0)
    done

(* {1 solve_mix} *)

(* One closed-loop connection sends whole rounds of the solve families
   and waits for every reply before the next request. Two connections
   would run two solves at once on the daemon's worker threads, which
   share one domain's sweep scratch and then return wrong answers now
   and then (README, known faults), so the benchmark sends one at a time.
   A round (one solve of each family) is one latency sample, so the
   gated median covers every solver, not only the one whose solves
   happen to straddle the median. *)
let solve_block_rounds = 20

let run_solve_mix c r d ~ping ~extra_setup =
  let cl = Client.create d.addr in
  let log = Queue.create () in
  let j = ref 0 in
  let round = Array.length Gen.families in
  let send ~timed =
    let req = Gen.solve_request ~seed:c.seed !j in
    let t0 = mono_s () in
    let rep = Client.request cl req in
    if timed then Samples.add r.family_lat.(!j mod round) (mono_s () -. t0);
    Queue.add (!j, rep) log;
    incr j
  in
  let send_round ~timed =
    let t0 = mono_s () in
    for _ = 1 to round do send ~timed done;
    if timed then begin
      Samples.add r.lat (mono_s () -. t0);
      r.measured <- r.measured + round
    end
  in
  (* Warm-up: one untimed round. *)
  send_round ~timed:false;
  let t_start = mono_s () and cpu0 = cpu_times () in
  let t_end = t_start +. c.seconds in
  while mono_s () < t_end do
    extra_setup ();
    let b0 = mono_s () and first = Samples.count r.lat and cpu = cpu_times () in
    for _ = 1 to solve_block_rounds do send_round ~timed:true done;
    close_block r ~first ~ops:(solve_block_rounds * round) ~dt:(mono_s () -. b0) ~cpu
  done;
  r.elapsed <- mono_s () -. t_start;
  r.steal_pct <- steal_pct cpu0 (cpu_times ());
  observe r d cl ~ping;
  Client.close cl;
  (* Checks, outside the timed phase. *)
  Queue.iter
    (fun (idx, rep) ->
      let req = Gen.solve_request ~seed:c.seed idx in
      keep_sample r req rep;
      match rep with
      | Error e -> note r (client_error e)
      | Ok reply -> note_wrong r (Oracle.check_solve req reply))
    log

(* {1 Session workloads} *)

type logged = { op : Gen.op; reply : (Proto.reply, Client.error) result }

let check_logged r m ~floor { op; reply } =
  match reply with
  | Error e ->
      (* A refused op never reached the store: the mirror stays as is. *)
      note r (client_error e)
  | Ok reply -> (
      match op with
      | Gen.Ins { x; y; w } -> note_wrong r (Oracle.check_inserted m ~x ~y ~w reply)
      | Gen.Del h -> note_wrong r (Oracle.check_deleted m h reply)
      | Gen.Query -> note_wrong r (Oracle.check_best ~radius:Gen.radius (Oracle.current m) reply)
      | Gen.Range { lo; hi } -> (
          (match reply with
          | Proto.Range_best { epoch; lag_ops; _ } ->
              r.range_n <- r.range_n + 1;
              if epoch > 0 then begin
                r.range_indexed <- r.range_indexed + 1;
                r.range_lag_sum <- r.range_lag_sum + lag_ops;
                Hashtbl.replace r.range_epochs epoch ()
              end
          | _ -> ());
          match Oracle.check_range m ~floor:!floor ~lo ~hi reply with
          | Ok (Oracle.Consistent s) ->
              floor := Int.max !floor s;
              note r (Ok ())
          | Ok (Oracle.Lag_mismatch _) ->
              r.range_mismatch <- r.range_mismatch + 1;
              note r (Ok ())
          | Error _ as e -> note_wrong r e))

(* The measured phase runs whole blocks of [block_ops] ops, the
   daemon's snapshot interval, after [warmup_ops] untimed ops. Every
   run therefore ends [warmup_ops] ops after the daemon's last
   snapshot, and the restart replays the same suffix length whatever
   the seed or the speed. Both are whole rounds of the op mix. *)
let block_ops = 1000
let warmup_ops = 200

let is_write = function Gen.Ins _ | Gen.Del _ -> true | Gen.Query | Gen.Range _ -> false

let run_session c r d ~script ~mirror ~ping =
  let cl = Client.create d.addr in
  let log = Queue.create () in
  let send ~timed =
    let op = Gen.next script in
    let req = Gen.request_of_op op in
    let t0 = mono_s () in
    let reply = Client.request cl req in
    let dt = mono_s () -. t0 in
    if timed then begin
      Samples.add r.lat dt;
      Samples.add (if is_write op then r.write_lat else r.read_lat) dt;
      r.measured <- r.measured + 1
    end;
    keep_sample r req reply;
    Queue.add { op; reply } log
  in
  (* Warm-up: untimed, so the index builder has published before
     timing starts. *)
  for _ = 1 to warmup_ops do send ~timed:false done;
  let t_start = mono_s () and cpu0 = cpu_times () in
  let t_end = t_start +. c.seconds in
  while mono_s () < t_end do
    let b0 = mono_s () and first = Samples.count r.lat and cpu = cpu_times () in
    for _ = 1 to block_ops do send ~timed:true done;
    close_block r ~first ~ops:block_ops ~dt:(mono_s () -. b0) ~cpu
  done;
  r.elapsed <- mono_s () -. t_start;
  r.steal_pct <- steal_pct cpu0 (cpu_times ());
  r.disk_mb <- Float.of_int (session_bytes ~dir:c.dir) /. 1e6;
  observe r d cl ~ping;
  let before = Client.request cl Proto.Query in
  Client.close cl;
  (* Checks, outside the timed phase, against the mirror of the script. *)
  let floor = ref 0 in
  Queue.iter (check_logged r mirror ~floor) log;
  (match before with
  | Error e -> note r (client_error e)
  | Ok reply -> note_wrong r (Oracle.check_best ~radius:Gen.radius (Oracle.current mirror) reply));
  before

(* Kill -9, restart on the same WAL, and check the restarted daemon
   against the state acknowledged before the kill. *)
let crash_and_recover c r d ~stats ~script ~mirror ~before =
  kill9 d.pid;
  let t0 = mono_s () in
  let d' = start_daemon c ~stats ~wal:d.wal in
  r.recover_s <- mono_s () -. t0;
  let cl = Client.create d'.addr in
  let bits = function
    | Ok (Proto.Best b) ->
        Option.map (fun (x, y, v) -> List.map Int64.bits_of_float [ x; y; v ]) b
        |> Option.some
    | _ -> None
  in
  let after = Client.request cl Proto.Query in
  note_wrong r
    (match (bits before, bits after) with
    | Some b, Some a when a = b -> Ok ()
    | _ -> Error "recovery: Best after restart differs from Best before the kill");
  let rec next_insert () =
    match Gen.next script with Gen.Ins _ as op -> op | _ -> next_insert ()
  in
  let op = next_insert () in
  let reply = Client.request cl (Gen.request_of_op op) in
  (match (op, reply) with
  | Gen.Ins { x; y; w }, Ok rep -> note_wrong r (Oracle.check_inserted mirror ~x ~y ~w rep)
  | _, Error e -> note r (client_error e)
  | _ -> ());
  Client.close cl;
  d'

(* {1 One run of a workload} *)

let session_pattern = function
  | "session_write" -> Some Gen.write_round
  | "session_read" -> Some Gen.read_round
  | _ -> None

(* A daemon launch alone takes about 3 ms and moves with the machine's
   load, so [solve_mix] times [between] more launches before each
   measured block, in a directory of their own while the measured
   daemon idles: their median covers the whole run, not one moment.
   The session workloads set up only before the measured phase: a
   bulk-load between blocks would leave megabytes of unwritten pages for
   the measured daemon's fsyncs. *)
let run_workload c ~stats ~setups ~between =
  let r = new_run () in
  let pattern = session_pattern c.workload in
  let prepared =
    Option.map
      (fun pattern ->
        let script, preload = Gen.session ~seed:c.seed ~pattern in
        let trace = Filename.concat c.dir "preload.trace" in
        write_file trace (Gen.preload_trace preload);
        (script, preload, trace))
      pattern
  in
  let session = Option.map (fun (_, _, t) -> t) prepared in
  let rec set_up k =
    let d, dt = setup c ~stats ~session in
    Samples.add r.setups dt;
    if k > 1 then begin
      kill9 d.pid;
      set_up (k - 1)
    end
    else d
  in
  let d = set_up setups in
  (match prepared with
  | None ->
      let extra = { c with dir = Filename.concat c.dir "extra" } in
      (try Unix.mkdir extra.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let extra_setup () =
        for _ = 1 to between do
          let d, dt = setup extra ~stats ~session:None in
          kill9 d.pid;
          Samples.add r.setups dt
        done
      in
      run_solve_mix c r d ~ping:stats ~extra_setup;
      terminate d.pid
  | Some (script, preload, _) ->
      let mirror = Oracle.mirror_of_preload preload in
      let before = run_session c r d ~script ~mirror ~ping:stats in
      let d' = crash_and_recover c r d ~stats ~script ~mirror ~before in
      terminate d'.pid);
  r

(* {1 Output} *)

(* A quantile of the daemon's own latency histogram ([Stats] reply),
   interpolated linearly inside its power-of-two bucket: bucket [i >= 1]
   holds [2^(i-1), 2^i) microseconds. The reply's own [p50_us]/[p99_us]
   are bucket upper bounds, too coarse to compare two runs. *)
let stats_quantile buckets q =
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  let rank = q *. Float.of_int total in
  let rec go i cum =
    if i >= Array.length buckets then Float.nan
    else
      let b, n = buckets.(i) in
      let cum' = cum +. Float.of_int n in
      if cum' >= rank then
        let lo = if b = 0 then 0. else Float.ldexp 1. (b - 1) in
        let hi = if b = 0 then 0. else Float.ldexp 1. b in
        lo +. ((hi -. lo) *. (rank -. cum) /. Float.of_int n)
      else go (i + 1) cum'
  in
  go 0 0.

let ms s = s *. 1000.

type figures = {
  f_rate : float;
  f_p50 : float;
  f_p90 : float;
  f_used : int;  (** blocks the figures are taken over *)
}

(* On a shared virtual machine the hypervisor takes the CPU away for
   seconds at a time: on the machine this was sized on, between 1% and
   40% of the time some vCPU wanted to run, changing over minutes, and
   every timing here moves with it. The program's work is the same in
   every block, so throughput and latency quantiles are medians over
   the half of the blocks during which the least CPU was stolen. *)
let figures r =
  let all = Array.of_seq (Queue.to_seq r.blocks) in
  Array.stable_sort (fun a b -> Float.compare a.steal b.steal) all;
  let bs = Array.sub all 0 ((Array.length all + 1) / 2) in
  let med f =
    let t = Samples.create () in
    Array.iter (fun b -> Samples.add t (f b)) bs;
    Samples.median t
  in
  {
    f_rate = med (fun b -> b.rate);
    f_p50 = med (fun b -> b.p50);
    f_p90 = med (fun b -> b.p90);
    f_used = Array.length bs;
  }

let ops_per_s r = (figures r).f_rate

let end_to_end r =
  let f = figures r in
  [ ("setup_s", "s", Samples.median r.setups); ("p50_ms", "ms", ms f.f_p50) ]

let report_line name unit v = Printf.printf "  %-28s %14.4f %s\n" name v unit

(* Reference figures, printed but not gated: throughput and tails,
   which move by more than a quarter between runs on a shared 2-vCPU
   machine, and the session-only figures. *)
let print_reference c r =
  Printf.printf "perfbench %s seed=%d seconds=%g\n" c.workload c.seed c.seconds;
  Printf.printf "  measured ops %d in %.3f s; attempted %d, failed %d\n" r.measured
    r.elapsed r.attempted r.failed;
  let s = Samples.sorted r.lat in
  (let f = figures r in
   report_line "ops_per_s" "1/s" f.f_rate;
   report_line "p90_ms" "ms" (ms f.f_p90));
  report_line "p99_ms" "ms" (ms (Samples.quantile_sorted s 0.99));
  report_line "max_ms" "ms" (ms (Samples.max r.lat));
  report_line "rss_peak_mb" "MB" r.rss_mb;
  (let s = Samples.sorted r.setups in
   Printf.printf "  set-ups %d: min %.4f s, median %.4f s, max %.4f s\n" (Array.length s)
     (Samples.quantile_sorted s 0.) (Samples.quantile_sorted s 0.5)
     (Samples.quantile_sorted s 1.));
  Printf.printf "  blocks (ops/s, steal %%): %s\n"
    (String.concat " "
       (List.map
          (fun b -> Printf.sprintf "%.0f/%.1f" b.rate b.steal)
          (List.of_seq (Queue.to_seq r.blocks))));
  Array.iteri
    (fun i l ->
      if Samples.count l > 0 then
        report_line
          (Printf.sprintf "%s_p50_ms (n=%d)" (Gen.family_name Gen.families.(i)) (Samples.count l))
          "ms" (ms (Samples.median l)))
    r.family_lat;
  if Samples.count r.read_lat > 0 then begin
    report_line
      (Printf.sprintf "read_p50_ms (n=%d)" (Samples.count r.read_lat))
      "ms" (ms (Samples.median r.read_lat));
    report_line
      (Printf.sprintf "write_p50_ms (n=%d)" (Samples.count r.write_lat))
      "ms" (ms (Samples.median r.write_lat));
    report_line "recover_s" "s" r.recover_s;
    report_line "disk_mb" "MB" r.disk_mb;
    Printf.printf "  range replies %d: indexed %d, epochs %d, lag mismatches %d\n"
      r.range_n r.range_indexed (Hashtbl.length r.range_epochs) r.range_mismatch
  end;
  (match r.stats with
  | Some s ->
      Printf.printf "  daemon Stats: completed %d, p50 %d us, p99 %d us, buckets %s\n"
        s.Proto.completed s.Proto.p50_us s.Proto.p99_us
        (String.concat " "
           (Array.to_list
              (Array.map (fun (b, n) -> Printf.sprintf "%d:%d" b n) s.Proto.latency_buckets)))
  | None -> ());
  report_line "cpu_steal_pct" "%" r.steal_pct;
  (let f = figures r in
   Printf.printf "  figures over the %d of %d blocks with the least steal\n" f.f_used
     (Queue.length r.blocks));
  List.iter (fun e -> Printf.printf "  failure: %s\n" e) (List.rev r.errors)

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* {1 Main} *)

let usage () =
  die
    "usage: bench.exe --workload solve_mix|session_write|session_read --seed N \
     --seconds S --trace 0|1 --bin-dir DIR"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "solve_mix"; "session_write"; "session_read" ]) then
    die "unknown workload %S" workload;
  let seed = int_of "seed" and seconds = int_of "seconds" and trace = int_of "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let c = { workload; seed; seconds = Float.of_int seconds; bin_dir = get "bin-dir"; dir } in
  if trace = 0 then begin
    let setups, between = if session_pattern workload = None then (1, 3) else (9, 0) in
    let r = run_workload c ~stats:false ~setups ~between in
    rm_rf dir;
    print_reference c r;
    json_result ~correct:(r.wrong = 0) ~attempted:r.attempted ~failed:r.failed (end_to_end r)
  end
  else begin
    (* Both daemon runs go without benchmark-side spans, so the overhead
       figure is the daemon's own recording alone. *)
    let plain = run_workload c ~stats:false ~setups:1 ~between:0 in
    let t = run_workload c ~stats:true ~setups:1 ~between:0 in
    Spans.on := true;
    let pattern = Option.value (session_pattern workload) ~default:Gen.write_round in
    let layers =
      Layers.replay ~seed ~pattern ~dir
        ~requests:(List.of_seq (Queue.to_seq t.requests))
        ~replies:(List.of_seq (Queue.to_seq t.replies))
    in
    Spans.on := false;
    rm_rf dir;
    Spans.write (Filename.concat root (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
    print_reference c t;
    let share a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b in
    let stat q =
      match t.stats with
      | Some s -> stats_quantile s.Proto.latency_buckets q
      | None -> Float.nan
    in
    let daemon =
      [
        ("server.ping_rtt_us", "us", Layers.us (Samples.median t.ping_rtt));
        ("server.service_p50_us", "us", stat 0.5);
        ("server.service_p99_us", "us", stat 0.99);
        ("range.index_share", "ratio", share t.range_indexed t.range_n);
        ( "range.lag_ops_mean",
          "ops",
          if t.range_indexed = 0 then 0.
          else Float.of_int t.range_lag_sum /. Float.of_int t.range_indexed );
        ("range.epochs_seen", "count", Float.of_int (Hashtbl.length t.range_epochs));
        ("range.lag_mismatch", "count", Float.of_int t.range_mismatch);
        ("rss_peak_mb", "MB", t.rss_mb);
        ( "trace.overhead_pct",
          "%",
          100. *. (ops_per_s plain -. ops_per_s t) /. ops_per_s plain );
      ]
    in
    json_result
      ~correct:(plain.wrong = 0 && t.wrong = 0)
      ~attempted:(plain.attempted + t.attempted)
      ~failed:(plain.failed + t.failed) (daemon @ layers)
  end
