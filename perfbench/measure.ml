(* Timing primitives shared by the closed loops and the traced replay. *)

(* The monotonic clock the repo's bench harness uses ([mono_s] in
   bench/main.ml): wall-clock adjustments never reach a measurement. *)
let mono_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* {1 Samples} *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Nearest rank: the smallest sample with at least [q] of the samples
     at or below it. *)
  let quantile_sorted s q =
    let n = Array.length s in
    if n = 0 then Float.nan
    else
      let r = Float.to_int (Float.ceil (q *. Float.of_int n)) in
      s.(Int.max 0 (Int.min (n - 1) (r - 1)))

  let quantile t q = quantile_sorted (sorted t) q
  let median t = quantile t 0.5

  let max t =
    let m = ref Float.neg_infinity in
    for i = 0 to t.n - 1 do m := Float.max !m t.a.(i) done;
    !m
end

(* {1 Spans}

   Benchmark-side spans around calls into each layer: name, start, end,
   parent span and request id. They are kept in memory and written out
   once, when the traced run ends. Recording is single-threaded: only
   the traced replay, on the main thread, opens spans. *)

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** 0 = none *)
    req : int;  (** request or op id; -1 = none *)
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let all : span list ref = ref []
  let stack : int list ref = ref []
  let next = ref 1

  let with_ ?(req = -1) name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      let s = { id; name; parent; req; start = mono_s (); stop = 0. } in
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- mono_s ();
          stack := List.tl !stack;
          all := s :: !all)
        f
    end

  (* Durations of every closed span called [name], in seconds. *)
  let durations name =
    let d = Samples.create () in
    List.iter (fun s -> if s.name = name then Samples.add d (s.stop -. s.start)) !all;
    d

  let write path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
              s.id s.name s.parent s.req s.start s.stop)
          (List.rev !all))
end
