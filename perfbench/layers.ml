(* The traced replay: the workload's generated inputs, run in-process
   through each layer's public functions, with a benchmark-side span
   around every call. Per-layer figures are read back from the spans
   and from [Obs] counter deltas; nothing inside the program is
   instrumented for the benchmark.

   The solver layer always replays the [solve_mix] instances of the
   seed and the session layers the session script of the workload
   ([session_write]'s script for [solve_mix]), so every traced run
   prints every per-layer metric. *)

module Proto = Maxrs_server.Proto
module Obs = Maxrs_obs.Obs
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Resilient = Maxrs.Resilient
module Static = Maxrs.Static
module Interval1d = Maxrs_sweep.Interval1d
module Session = Maxrs_durable.Session
module Snapshot = Maxrs_durable.Snapshot
module Codec = Maxrs_durable.Codec
module Wal = Maxrs_durable.Wal
module Rmsq = Maxrs_query.Rmsq
module Samples = Measure.Samples
module Spans = Measure.Spans

let span = Spans.with_
let us s = s *. 1e6
let ms s = s *. 1e3
let median_of name = Samples.median (Spans.durations name)

(* Solves per family, and session ops, replayed per traced run. *)
let solve_rounds = 6
let session_ops = 400

let counters =
  [ "sweep.events"; "sweep.circles"; "os.sweep_events"; "samples.drawn"; "kd.visits" ]

let solve_family_span = function
  | Proto.Solve_weighted _ -> "solve.weighted"
  | Proto.Solve_colored _ -> "solve.colored"
  | Proto.Solve_interval _ -> "solve.interval"
  | Proto.Solve_static _ -> "solve.static"
  | _ -> "solve.other"

(* The calls the daemon's worker makes for each solve request. *)
let solve_in_process (req : Proto.request) =
  match req with
  | Proto.Solve_weighted { radius; points; _ } ->
      ignore (Resilient.exact_weighted ~radius points)
  | Proto.Solve_colored { radius; seed; max_shifts; points; colors; _ } ->
      ignore (Resilient.exact_colored ~radius ?max_shifts ~seed points ~colors)
  | Proto.Solve_interval { len; points } -> ignore (Interval1d.max_sum_checked ~len points)
  | Proto.Solve_static { radius; epsilon; seed; max_shifts; points } ->
      let cfg = Config.make ~epsilon ~max_grid_shifts:max_shifts ~seed () in
      let pts = Array.map (fun (x, y, w) -> ([| x; y |], w)) points in
      ignore (Static.solve_checked ~cfg ~radius ~dim:2 pts)
  | _ -> ()

let solve_layer ~seed =
  let reqs =
    List.init (solve_rounds * Array.length Gen.families) (fun j ->
        Gen.solve_request ~seed j)
  in
  (* Timed with recording off; counted in a second pass with it on. *)
  List.iteri
    (fun j req -> span ~req:j (solve_family_span req) (fun () -> solve_in_process req))
    reqs;
  let base = Obs.Snapshot.capture () in
  Obs.with_enabled true (fun () -> List.iter solve_in_process reqs);
  let d = Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base in
  let n = Float.of_int (List.length reqs) in
  List.map
    (fun name -> (name ^ "_ms", "ms", ms (median_of name)))
    [ "solve.weighted"; "solve.colored"; "solve.interval"; "solve.static" ]
  @ List.map (fun c -> (c, "count", Float.of_int (Obs.Snapshot.counter d c) /. n)) counters

let codec_layer ~requests ~replies =
  let reps = 20 in
  let time name items f =
    let t = Samples.create () in
    for _ = 1 to reps do
      let t0 = Measure.mono_s () in
      span name (fun () -> List.iter f items);
      Samples.add t ((Measure.mono_s () -. t0) /. Float.of_int (List.length items))
    done;
    us (Samples.median t)
  in
  let req_us =
    time "proto.request_codec" requests (fun r ->
        ignore (Proto.decode_request (Proto.encode_request ~id:1 r)))
  in
  let rep_us =
    time "proto.reply_codec" replies (fun r ->
        ignore (Proto.decode_reply (Proto.encode_reply ~id:1 r)))
  in
  [ ("proto.request_codec_us", "us", req_us); ("proto.reply_codec_us", "us", rep_us) ]

let script_ops ~seed ~pattern =
  let script, preload = Gen.session ~seed ~pattern in
  (preload, List.init session_ops (fun _ -> Gen.next script))

let ranges ops =
  List.filter_map (function Gen.Range { lo; hi } -> Some (lo, hi) | _ -> None) ops

let cfg () = Config.make ~max_grid_shifts:(Some Gen.session_shifts) ()

(* The Theorem-1.1 store with no journal. *)
let dynamic_layer ~preload ~ops =
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let dyn = Dynamic.create ~cfg:(cfg ()) ~radius:Gen.radius ~dim:2 () in
  let handles =
    Array.map (fun (x, y, w) -> Dynamic.insert dyn ~weight:w [| x; y |]) preload
  in
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  let words_per_point = Float.of_int (w1 - w0) /. Float.of_int (Array.length preload) in
  let live = Hashtbl.create 1024 in
  Array.iteri (fun i h -> Hashtbl.replace live i h) handles;
  let next = ref (Array.length preload) in
  List.iteri
    (fun i op ->
      match op with
      | Gen.Ins { x; y; w } ->
          let h = span ~req:i "dynamic.insert" (fun () -> Dynamic.insert dyn ~weight:w [| x; y |]) in
          Hashtbl.replace live !next h;
          incr next
      | Gen.Del h ->
          span ~req:i "dynamic.delete" (fun () -> Dynamic.delete dyn (Hashtbl.find live h))
      | Gen.Query -> ignore (span ~req:i "dynamic.best" (fun () -> Dynamic.best dyn))
      | Gen.Range _ -> ())
    ops;
  (* Best is cheap and rare in the write script: time it on its own too. *)
  for i = 0 to 199 do
    ignore (span ~req:i "dynamic.best" (fun () -> Dynamic.best dyn))
  done;
  ignore (Sys.opaque_identity handles);
  [
    ("dynamic.insert_us", "us", us (median_of "dynamic.insert"));
    ("dynamic.delete_us", "us", us (median_of "dynamic.delete"));
    ("dynamic.best_us", "us", us (median_of "dynamic.best"));
    ("dynamic.epochs", "count", Float.of_int (Dynamic.epochs dyn));
    ("mem.heap_words_per_point", "words", words_per_point);
  ]

let open_exn ~wal ~fsync =
  match Session.open_ ~wal ~fsync ~cfg:(cfg ()) ~radius:Gen.radius () with
  | Ok s -> s
  | Error m -> failwith ("Session.open_: " ^ m)

(* The durable session as the daemon runs it (fsync always, snapshot
   every 1000 ops), then recovery by phase, state capture, encoding and
   a snapshot, and the read tier compiled from the same state. *)
let durable_layer ~dir ~preload ~ops =
  let wal = Filename.concat dir "replay.wal" in
  (* The preload, bulk-loaded as [maxrs_cli session --fsync never
     --final-snapshot] does. *)
  let s = open_exn ~wal ~fsync:Wal.Never in
  Array.iter (fun (x, y, w) -> ignore (Session.insert s ~weight:w [| x; y |])) preload;
  Session.snapshot_now s;
  Session.close s;
  let s = open_exn ~wal ~fsync:Wal.Always in
  let base = Obs.Snapshot.capture () in
  let writes = ref 0 in
  Obs.with_enabled true (fun () ->
      List.iteri
        (fun i op ->
          match op with
          | Gen.Ins { x; y; w } ->
              incr writes;
              ignore (span ~req:i "session.insert" (fun () -> Session.insert s ~weight:w [| x; y |]))
          | Gen.Del h ->
              incr writes;
              span ~req:i "session.delete" (fun () ->
                  Session.delete s (Dynamic.handle_of_id h))
          | Gen.Query | Gen.Range _ -> ())
        ops);
  let d = Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base in
  let per_write c = Float.of_int (Obs.Snapshot.counter d c) /. Float.of_int !writes in
  Session.close s;
  (* Recovery by phase: the same snapshot load and restore that
     [Session.open_] performs, timed on their own, then the whole open;
     the rest of the open is the WAL scan and suffix replay. *)
  let state =
    span "recovery.load" (fun () ->
        match Snapshot.load_all ~wal with
        | (_, st, _) :: _ -> st
        | [] -> failwith "no snapshot")
  in
  ignore (span "recovery.restore" (fun () -> Dynamic.restore state));
  let s = span "recovery.open" (fun () -> open_exn ~wal ~fsync:Wal.Always) in
  let replayed =
    match Session.recovery s with Some r -> r.Session.replayed | None -> 0
  in
  let load = median_of "recovery.load" and restore = median_of "recovery.restore" in
  let opened = median_of "recovery.open" in
  let st = ref state in
  for _ = 1 to 3 do
    st := span "state.capture" (fun () -> Session.state s)
  done;
  let encoded = ref "" in
  for _ = 1 to 3 do
    encoded := span "codec.encode" (fun () -> Codec.encode_state !st)
  done;
  let live = Session.size s in
  span "snapshot.write" (fun () -> Session.snapshot_now s);
  Session.close s;
  (* Read tier over the same state. *)
  let proj = ref [||] and idx = ref None in
  for _ = 1 to 3 do
    proj := span "rmsq.project" (fun () -> Rmsq.project_state !st);
    idx := Some (span "rmsq.build" (fun () -> Rmsq.build !proj))
  done;
  let idx = Option.get !idx in
  let rs = ranges ops in
  let reps = 200 in
  span "rmsq.lookups" (fun () ->
      for _ = 1 to reps do
        List.iter (fun (lo, hi) -> ignore (Rmsq.max_sum_in_coords idx ~lo ~hi)) rs
      done);
  let lookup = median_of "rmsq.lookups" /. Float.of_int (reps * List.length rs) in
  let b = Interval1d.preprocess !proj in
  List.iteri
    (fun i (lo, hi) -> ignore (span ~req:i "rmsq.scan" (fun () -> Rmsq.scan_coords b ~lo ~hi)))
    rs;
  [
    ("session.insert_us", "us", us (median_of "session.insert"));
    ("session.delete_us", "us", us (median_of "session.delete"));
    ("wal.bytes_per_op", "B", per_write "wal.bytes");
    ("wal.fsyncs_per_op", "count", per_write "wal.fsyncs");
    ("state.capture_ms", "ms", ms (median_of "state.capture"));
    ("codec.encode_ms", "ms", ms (median_of "codec.encode"));
    ( "state.encoded_bytes_per_point",
      "B",
      Float.of_int (String.length !encoded) /. Float.of_int live );
    ("snapshot.write_ms", "ms", ms (median_of "snapshot.write"));
    ("recovery.load_ms", "ms", ms load);
    ("recovery.restore_ms", "ms", ms restore);
    ("recovery.replay_ms", "ms", ms (opened -. load -. restore));
    ("recovery.replayed_ops", "count", Float.of_int replayed);
    ("rmsq.project_ms", "ms", ms (median_of "rmsq.project"));
    ("rmsq.build_ms", "ms", ms (median_of "rmsq.build"));
    ("rmsq.lookup_us", "us", us lookup);
    ("rmsq.scan_ms", "ms", ms (median_of "rmsq.scan"));
    ("rmsq.bits_per_point", "bits", Rmsq.bits_per_point idx);
  ]

let replay ~seed ~pattern ~dir ~requests ~replies =
  let solve = solve_layer ~seed in
  let codec = codec_layer ~requests ~replies in
  let preload, ops = script_ops ~seed ~pattern in
  let dynamic = dynamic_layer ~preload ~ops in
  let durable = durable_layer ~dir ~preload ~ops in
  solve @ codec @ dynamic @ durable
