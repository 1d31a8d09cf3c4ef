(* The benchmark's own answers: brute-force optima, a two-pointer
   interval scan, a max-sum segment scan and a mirror of the session's
   live set. None of them calls the solvers they check, and each reply
   check returns [Error] with a reason instead of raising, so a wrong
   reply counts as one failed operation. *)

module Proto = Maxrs_server.Proto
module Outcome = Maxrs_resilience.Outcome

(* Closed disks, with a relative slack far below the spacing of random
   float inputs: a centre computed as a circle intersection sits on the
   two defining circles only up to rounding. *)
let inside ~radius (cx, cy) (x, y) =
  let dx = x -. cx and dy = y -. cy in
  (dx *. dx) +. (dy *. dy) <= radius *. radius *. (1. +. 1e-9)

(* {1 Disk brute force} *)

(* Points bucketed in square cells of side [2 radius]: every point
   within [radius] of a centre, and every circle meeting a point's
   circle, lies in the 3x3 block of cells around it. *)
module Grid = struct
  type t = { side : float; cells : (int * int, int list) Hashtbl.t }

  let key side (x, y) =
    (Float.to_int (Float.floor (x /. side)), Float.to_int (Float.floor (y /. side)))

  let make ~radius xy =
    let side = 2. *. radius in
    let cells = Hashtbl.create (Array.length xy) in
    Array.iteri
      (fun i p ->
        let k = key side p in
        Hashtbl.replace cells k
          (i :: Option.value ~default:[] (Hashtbl.find_opt cells k)))
      xy;
    { side; cells }

  let iter_near g p f =
    let cx, cy = key g.side p in
    for i = cx - 1 to cx + 1 do
      for j = cy - 1 to cy + 1 do
        match Hashtbl.find_opt g.cells (i, j) with
        | Some l -> List.iter f l
        | None -> ()
      done
    done
end

(* Candidate centres: every input point and both intersections of every
   pair of circles of radius [radius] around input points. With closed
   disks of equal radius the deepest point of the arrangement is one of
   them (a vertex of the deepest face, or a centre when that face is a
   whole disk). *)
let iter_candidates ~radius xy g f =
  Array.iteri
    (fun i ((px, py) as p) ->
      f p;
      Grid.iter_near g p (fun j ->
          if j > i then begin
            let qx, qy = xy.(j) in
            let dx = qx -. px and dy = qy -. py in
            let d2 = (dx *. dx) +. (dy *. dy) in
            if d2 > 0. && d2 <= 4. *. radius *. radius then begin
              let h = Float.sqrt (Float.max 0. ((radius *. radius) -. (d2 /. 4.))) in
              let d = Float.sqrt d2 in
              let mx = px +. (dx /. 2.) and my = py +. (dy /. 2.) in
              let ox = -.dy /. d *. h and oy = dx /. d *. h in
              f (mx +. ox, my +. oy);
              f (mx -. ox, my -. oy)
            end
          end))
    xy

let covered_weight ~radius pts c =
  Array.fold_left
    (fun acc (x, y, w) -> if inside ~radius c (x, y) then acc +. w else acc)
    0. pts

let covered_colors ~radius pts colors c =
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i p -> if inside ~radius c p then Hashtbl.replace seen colors.(i) ())
    pts;
  Hashtbl.length seen

(* Maximum covered weight over all disk placements. *)
let disk_best ~radius pts =
  let xy = Array.map (fun (x, y, _) -> (x, y)) pts in
  let g = Grid.make ~radius xy in
  let best = ref 0. in
  iter_candidates ~radius xy g (fun c ->
      let v = ref 0. in
      Grid.iter_near g c (fun k ->
          let _, _, w = pts.(k) in
          if inside ~radius c xy.(k) then v := !v +. w);
      if !v > !best then best := !v);
  !best

(* Maximum number of distinct colours one disk covers. *)
let colored_best ~radius pts colors =
  let g = Grid.make ~radius pts in
  let ncol = 1 + Array.fold_left max 0 colors in
  let stamp = Array.make ncol (-1) in
  let best = ref 0 and round = ref 0 in
  iter_candidates ~radius pts g (fun c ->
      incr round;
      let v = ref 0 in
      Grid.iter_near g c (fun k ->
          if inside ~radius c pts.(k) && stamp.(colors.(k)) <> !round then begin
            stamp.(colors.(k)) <- !round;
            incr v
          end);
      if !v > !best then best := !v);
  !best

(* {1 Interval two-pointer} *)

(* Best total weight of a closed interval [l, l + len]; weights are
   non-negative, so the best interval starting at a point extends as far
   right as [len] allows. The empty placement gives 0. *)
let interval_best ~len pts =
  let a = Array.copy pts in
  Array.sort (fun (x1, _) (x2, _) -> Float.compare x1 x2) a;
  let n = Array.length a in
  let best = ref 0. and sum = ref 0. and j = ref 0 in
  for i = 0 to n - 1 do
    if !j < i then begin
      j := i;
      sum := 0.
    end;
    while !j < n && fst a.(!j) -. fst a.(i) <= len do
      sum := !sum +. snd a.(!j);
      incr j
    done;
    if !sum > !best then best := !sum;
    sum := !sum -. snd a.(i)
  done;
  !best

(* {1 Max-sum segment scan} *)

(* Largest sum of a non-empty run of consecutive [ws] inside element
   indices [a..b] (Kadane); [None] when the range is empty. *)
let max_segment ws ~a ~b =
  if a > b then None
  else begin
    let best = ref ws.(a) and run = ref ws.(a) in
    for i = a + 1 to b do
      run := Float.max ws.(i) (!run +. ws.(i));
      if !run > !best then best := !run
    done;
    Some !best
  end

(* Element index range of the coordinates inside [[lo, hi]] of an
   ascending array. *)
let index_range xs ~lo ~hi =
  let n = Array.length xs in
  let first = ref 0 in
  while !first < n && xs.(!first) < lo do incr first done;
  let last = ref (n - 1) in
  while !last >= 0 && xs.(!last) > hi do decr last done;
  (!first, !last)

let sum_range ws ~a ~b =
  let s = ref 0. in
  for i = a to b do s := !s +. ws.(i) done;
  !s

(* {1 Live-set mirror} *)

module Fmap = Map.Make (Float)

(* Keyed by axis-0 coordinate (distinct by construction), so a state's
   bindings are already the sorted projection the read tier indexes. *)
type live = (int * float * float) Fmap.t  (** x -> (handle, y, weight) *)

type mirror = {
  base : int;  (** seq of [states.(0)] *)
  mutable states : live array;  (** state after each seq, from [base] *)
  mutable len : int;
  where : (int, float) Hashtbl.t;  (** handle -> x *)
  mutable next_handle : int;
}

let mirror_of_preload preload =
  let where = Hashtbl.create 1024 in
  let live =
    Array.to_list preload
    |> List.mapi (fun h (x, y, w) ->
           Hashtbl.replace where h x;
           (x, (h, y, w)))
    |> List.to_seq |> Fmap.of_seq
  in
  let n = Array.length preload in
  { base = n; states = [| live |]; len = 1; where; next_handle = n }

let acked m = m.base + m.len - 1
let current m = m.states.(m.len - 1)

let state_at m seq =
  if seq < m.base || seq > acked m then None else Some m.states.(seq - m.base)

let push m live =
  if m.len = Array.length m.states then begin
    let a = Array.make (2 * m.len) live in
    Array.blit m.states 0 a 0 m.len;
    m.states <- a
  end;
  m.states.(m.len) <- live;
  m.len <- m.len + 1

let mirror_insert m ~x ~y ~w =
  let h = m.next_handle in
  m.next_handle <- h + 1;
  Hashtbl.replace m.where h x;
  push m (Fmap.add x (h, y, w) (current m));
  h

let mirror_delete m h =
  match Hashtbl.find_opt m.where h with
  | Some x when Fmap.mem x (current m) ->
      push m (Fmap.remove x (current m));
      true
  | _ -> false

let live_points live =
  Fmap.bindings live |> List.map (fun (x, (_, y, w)) -> (x, y, w)) |> Array.of_list

let columns live =
  let b = Fmap.bindings live in
  ( Array.of_list (List.map fst b),
    Array.of_list (List.map (fun (_, (_, _, w)) -> w) b) )

(* {1 Reply checks} *)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let complete_answer = function
  | Proto.Solved (Outcome.Complete a) -> Ok a
  | Proto.Solved _ -> fail "solve degraded"
  | Proto.Error_reply { msg; _ } -> fail "error reply: %s" msg
  | _ -> fail "unexpected reply"

let check_solve (req : Proto.request) (reply : Proto.reply) =
  let ( let* ) = Result.bind in
  let* a = complete_answer reply in
  match req with
  | Proto.Solve_weighted { radius; points; _ } ->
      let want = disk_best ~radius points in
      if a.Proto.source <> Proto.Exact then fail "weighted: source not Exact"
      else if a.Proto.value <> want then
        fail "weighted: value %g, brute force %g" a.Proto.value want
      else Ok ()
  | Proto.Solve_colored { radius; points; colors; _ } ->
      let want = Float.of_int (colored_best ~radius points colors) in
      if a.Proto.value <> want then
        fail "colored: value %g, brute force %g" a.Proto.value want
      else Ok ()
  | Proto.Solve_interval { len; points } ->
      let want = interval_best ~len points in
      if a.Proto.value <> want then
        fail "interval: value %g, two-pointer %g" a.Proto.value want
      else Ok ()
  | Proto.Solve_static { radius; points; _ } ->
      let opt = disk_best ~radius points in
      let got = covered_weight ~radius points (a.Proto.x, a.Proto.y) in
      if a.Proto.value > opt then
        fail "static: value %g above the optimum %g" a.Proto.value opt
      else if got < a.Proto.value then
        fail "static: value %g but the centre covers %g" a.Proto.value got
      else Ok ()
  | _ -> fail "not a solve request"

let check_inserted m ~x ~y ~w (reply : Proto.reply) =
  match reply with
  | Proto.Inserted { handle; seq } ->
      let want_seq = acked m + 1 and want_handle = m.next_handle in
      ignore (mirror_insert m ~x ~y ~w : int);
      if seq <> want_seq then fail "insert: seq %d, expected %d" seq want_seq
      else if handle <> want_handle then
        fail "insert: handle %d, expected %d" handle want_handle
      else Ok ()
  | Proto.Error_reply { msg; _ } -> fail "insert: error reply: %s" msg
  | _ -> fail "insert: unexpected reply"

let check_deleted m h (reply : Proto.reply) =
  match reply with
  | Proto.Deleted { seq } ->
      let want = acked m + 1 in
      if not (mirror_delete m h) then fail "delete: handle %d not live" h
      else if seq <> want then fail "delete: seq %d, expected %d" seq want
      else Ok ()
  | Proto.Error_reply { msg; _ } -> fail "delete: error reply: %s" msg
  | _ -> fail "delete: unexpected reply"

let check_best ~radius live (reply : Proto.reply) =
  match reply with
  | Proto.Best None ->
      if Fmap.is_empty live then Ok () else fail "best: None over a live set"
  | Proto.Best (Some (x, y, v)) ->
      if Fmap.is_empty live then fail "best: Some over an empty set"
      else
        let got = covered_weight ~radius (live_points live) (x, y) in
        if got < v then fail "best: value %g but the centre covers %g" v got
        else Ok ()
  | Proto.Error_reply { msg; _ } -> fail "best: error reply: %s" msg
  | _ -> fail "best: unexpected reply"

(* A [Range_best] segment is right for a state when it lies inside the
   range's element indices, its own elements sum to its sum, and no
   segment in the range sums to more. Equal-sum segments are all
   accepted: the tie rule is the index's business. *)
let segment_ok live ~lo ~hi seg =
  let xs, ws = columns live in
  let a, b = index_range xs ~lo ~hi in
  match (max_segment ws ~a ~b, seg) with
  | None, None -> Ok ()
  | None, Some _ -> fail "range: segment over an empty range"
  | Some want, None -> fail "range: None, expected sum %g" want
  | Some want, Some (s_lo, s_hi, s_sum) ->
      if s_lo < a || s_hi > b || s_lo > s_hi then
        fail "range: segment [%d,%d] outside [%d,%d]" s_lo s_hi a b
      else if sum_range ws ~a:s_lo ~b:s_hi <> s_sum then
        fail "range: segment [%d,%d] sums to %g, reply says %g" s_lo s_hi
          (sum_range ws ~a:s_lo ~b:s_hi) s_sum
      else if s_sum <> want then fail "range: sum %g, expected %g" s_sum want
      else Ok ()

type range_verdict =
  | Consistent of int  (** the seq the reply's index reflects *)
  | Lag_mismatch of int
      (** matched only an earlier state: the lag figure was read from a
          newer epoch than the segment (see README, known faults) *)

(* [floor] is the seq of the last consistent reply; a mismatched reply
   may reflect no state older than that. *)
let check_range m ~floor ~lo ~hi (reply : Proto.reply) =
  match reply with
  | Proto.Range_best { seg; epoch; lag_ops } -> (
      let now = acked m in
      let at = if epoch = 0 then now else now - lag_ops in
      match state_at m at with
      | None -> fail "range: epoch %d lag %d names seq %d, unknown" epoch lag_ops at
      | Some live -> (
          match segment_ok live ~lo ~hi seg with
          | Ok () -> Ok (Consistent at)
          | Error why ->
              let rec earlier s =
                if s < floor || s < m.base then Error why
                else
                  match state_at m s with
                  | Some l when Result.is_ok (segment_ok l ~lo ~hi seg) ->
                      Ok (Lag_mismatch s)
                  | _ -> earlier (s - 1)
              in
              if epoch = 0 then Error why else earlier (at - 1)))
  | Proto.Error_reply { msg; _ } -> fail "range: error reply: %s" msg
  | _ -> fail "range: unexpected reply"
