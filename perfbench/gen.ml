(* Seeded inputs of the benchmark. Every input is a pure function of the
   workload seed and an index, so a traced run, an untraced run and a
   test see the same instances, and the program under test receives
   only the generated data.

   Integer weights keep every sum the oracles compute exact, so a reply
   can be compared with [=] rather than a tolerance. *)

module Rng = Maxrs_geom.Rng
module Proto = Maxrs_server.Proto

let radius = 1.

(* {1 Solve instances} *)

(* Sizes chosen so one solve costs from a fraction of a millisecond
   (interval) to about 20 ms (colored): the solver kernels, not the
   round trip, dominate [solve_mix]. *)
let disk_n = 150
let disk_extent = 6.
let colored_n = 20
let colors = 6
let interval_n = 2000
let interval_extent = 1000
let interval_len = 5.
let static_n = 200
let static_extent = 8.
let static_epsilon = 0.4
let static_shifts = 2

type family = Weighted | Colored | Interval | Static

(* One round of [solve_mix]: one solve of each family. The round, not
   the single solve, is [solve_mix]'s latency sample, so a slower solver
   of any family moves its median. *)
let families = [| Weighted; Colored; Interval; Static |]

let family_name = function
  | Weighted -> "weighted"
  | Colored -> "colored"
  | Interval -> "interval"
  | Static -> "static"

let weight rng = Float.of_int (1 + Rng.int rng 9)

let disk_points rng ~n ~extent =
  Array.init n (fun _ ->
      let x = Rng.uniform rng 0. extent in
      let y = Rng.uniform rng 0. extent in
      (x, y, weight rng))

(* Request [j] of the stream; its family rotates with [j], so every
   run sends whole rounds of the families. *)
let family_of j = families.(j mod Array.length families)

let solve_request ~seed idx =
  let rng = Rng.split_at (Rng.create seed) idx in
  match family_of idx with
  | Weighted ->
      Proto.Solve_weighted
        {
          radius;
          deadline = None;
          points = disk_points rng ~n:disk_n ~extent:disk_extent;
        }
  | Colored ->
      let pts =
        Array.init colored_n (fun _ ->
            let x = Rng.uniform rng 0. disk_extent in
            let y = Rng.uniform rng 0. disk_extent in
            (x, y))
      in
      let colors = Array.init colored_n (fun _ -> Rng.int rng colors) in
      Proto.Solve_colored
        {
          radius;
          deadline = None;
          seed = idx;
          max_shifts = None;
          points = pts;
          colors;
        }
  | Interval ->
      (* Integer coordinates put points exactly on interval ends, so the
         closed-interval boundary is exercised on every instance. *)
      let pts =
        Array.init interval_n (fun _ ->
            (Float.of_int (Rng.int rng (interval_extent + 1)), weight rng))
      in
      Proto.Solve_interval { len = interval_len; points = pts }
  | Static ->
      Proto.Solve_static
        {
          radius;
          epsilon = static_epsilon;
          seed = idx;
          max_shifts = Some static_shifts;
          points = disk_points rng ~n:static_n ~extent:static_extent;
        }

(* {1 Session inputs} *)

(* The dynamic state grows with the area the points cover and with the
   grid-shift count, so both are kept small; [n] barely matters. *)
let preload_n = 300
let extent_x = 20.
let extent_y = 4.
let session_shifts = 2

(* Axis-0 coordinates are drawn without replacement from a fixed grid,
   so no two points ever share one: the sorted projection the read tier
   indexes then has a single order, whatever the tie rule. *)
let x_slots = 40_000
let x_step = extent_x /. Float.of_int x_slots

type op =
  | Ins of { x : float; y : float; w : float }
  | Del of int  (** handle *)
  | Query
  | Range of { lo : float; hi : float }

type kind = K_ins | K_del | K_query | K_range

(* One round of each session workload. [session_write] is mostly
   Insert/Delete with one Query and one Range_sum; [session_read] is
   mostly Range_sum with a few writes so the index goes stale. Inserts
   and deletes balance, so the live set stays near the preload size.
   Reads are a fifth of [session_read], so its 90th-percentile latency
   falls inside the writes rather than on the edge between the two. *)
let write_round =
  Array.init 20 (fun i ->
      if i = 9 then K_query
      else if i = 19 then K_range
      else if i mod 2 = 0 then K_ins
      else K_del)

let read_round =
  Array.init 20 (fun i ->
      match i with
      | 4 | 14 -> K_query
      | 2 | 12 -> K_ins
      | 7 | 17 -> K_del
      | _ -> K_range)

type script = {
  rng : Rng.t;
  slots : int array;  (* shuffled x grid; consumed front to back *)
  mutable next_slot : int;
  live : int array;  (* live handles, unordered *)
  mutable n_live : int;
  mutable next_handle : int;
  mutable index : int;  (* ops generated so far *)
  pattern : kind array;
}

let fresh_point t rng =
  if t.next_slot >= Array.length t.slots then failwith "Gen: x grid exhausted";
  let x = Float.of_int t.slots.(t.next_slot) *. x_step in
  t.next_slot <- t.next_slot + 1;
  let y = Rng.uniform rng 0. extent_y in
  (x, y, weight rng)

let add_live t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  t.live.(t.n_live) <- h;
  t.n_live <- t.n_live + 1

(* The preload (handles [0 .. preload_n - 1]) and a script whose first
   op follows it. Handles are dense and assigned in insert order, so the
   script predicts them without asking the server. *)
let session ~seed ~pattern =
  let rng = Rng.create (seed + 0x5e55) in
  let slots = Array.init x_slots Fun.id in
  Rng.shuffle rng slots;
  let t =
    {
      rng;
      slots;
      next_slot = 0;
      live = Array.make x_slots 0;
      n_live = 0;
      next_handle = 0;
      index = 0;
      pattern;
    }
  in
  let prng = Rng.split_at rng 0 in
  let preload =
    Array.init preload_n (fun _ ->
        let p = fresh_point t prng in
        add_live t;
        p)
  in
  (t, preload)

let next t =
  let rng = Rng.split_at t.rng (t.index + 1) in
  let kind = t.pattern.(t.index mod Array.length t.pattern) in
  t.index <- t.index + 1;
  match kind with
  | K_ins ->
      let x, y, w = fresh_point t rng in
      add_live t;
      Ins { x; y; w }
  | K_del when t.n_live > 0 ->
      let i = Rng.int rng t.n_live in
      let h = t.live.(i) in
      t.n_live <- t.n_live - 1;
      t.live.(i) <- t.live.(t.n_live);
      Del h
  | K_del | K_query -> Query
  | K_range ->
      let lo = Rng.uniform rng (-1.) (extent_x +. 1.) in
      let hi = lo +. Rng.uniform rng 0.5 12. in
      Range { lo; hi }

(* Trace lines for [maxrs_cli session -i]. The [w x,y,w] form is the
   weighted insert; [%.17g] round-trips every float exactly, so the
   server holds the same coordinates as the benchmark's mirror. *)
let preload_trace preload =
  let b = Buffer.create (preload_n * 48) in
  Array.iter
    (fun (x, y, w) -> Printf.bprintf b "w %.17g,%.17g,%.17g\n" x y w)
    preload;
  Buffer.contents b

let request_of_op = function
  | Ins { x; y; w } -> Proto.Insert { x; y; weight = w }
  | Del h -> Proto.Delete { handle = h }
  | Query -> Proto.Query
  | Range { lo; hi } -> Proto.Range_sum { lo; hi }
