(* The benchmark's oracles on hand cases with known answers, and each
   reply check rejecting a corrupted reply: a value off by one weight
   unit, a shifted segment, a wrong seq. *)

module Proto = Maxrs_server.Proto
module Outcome = Maxrs_resilience.Outcome

let feq = Alcotest.(check (float 0.))
let ok name r = Alcotest.(check bool) name true (Result.is_ok r)
let rejected name r = Alcotest.(check bool) name true (Result.is_error r)

(* {1 Oracles} *)

let disk () =
  let b = Oracle.disk_best ~radius:1. in
  feq "one disk covers a tight triangle" 6. (b [| (0., 0., 1.); (1., 0., 2.); (0.5, 0.8, 3.) |]);
  feq "far apart: the heavier point" 5. (b [| (0., 0., 5.); (10., 0., 2.) |]);
  (* Closed disks: two points exactly a diameter apart fit together. *)
  feq "diameter apart" 3. (b [| (0., 0., 1.); (2., 0., 2.) |]);
  feq "just over a diameter" 2. (b [| (0., 0., 1.); (2.001, 0., 2.) |]);
  (* The only centre reaching all three is the tangency point (1, 0). *)
  feq "tangency candidate" 3. (b [| (0., 0., 1.); (2., 0., 1.); (1., 0.5, 1.) |]);
  feq "empty" 0. (b [||]);
  (* Both intersections of a pair of circles are candidate centres. *)
  let xy = [| (0., 0.); (1., 0.) |] in
  let seen = ref [] in
  Oracle.iter_candidates ~radius:1. xy (Oracle.Grid.make ~radius:1. xy) (fun c ->
      seen := c :: !seen);
  let near (x, y) = List.exists (fun (u, v) -> Float.abs (u -. x) +. Float.abs (v -. y) < 1e-12) !seen in
  let h = Float.sqrt 0.75 in
  Alcotest.(check bool) "upper intersection" true (near (0.5, h));
  Alcotest.(check bool) "lower intersection" true (near (0.5, -.h))

let colored () =
  let b pts colors = Oracle.colored_best ~radius:1. pts colors in
  Alcotest.(check int) "repeated colour counts once" 2
    (b [| (0., 0.); (0.5, 0.); (1., 0.) |] [| 0; 0; 1 |]);
  Alcotest.(check int) "far apart" 1 (b [| (0., 0.); (5., 0.); (10., 0.) |] [| 0; 1; 2 |]);
  Alcotest.(check int) "three colours in reach" 3
    (b [| (0., 0.); (1., 0.); (2., 0.); (9., 9.) |] [| 2; 1; 0; 0 |])

let interval () =
  let pts = [| (6., 1.); (0., 1.); (5., 4.); (1., 2.) |] in
  let b len = Oracle.interval_best ~len pts in
  feq "len 1" 5. (b 1.);
  feq "len 4: closed [1,5]" 6. (b 4.);
  feq "len 5" 7. (b 5.);
  feq "len 0: heaviest point" 4. (b 0.);
  feq "empty" 0. (Oracle.interval_best ~len:3. [||])

let segment () =
  let ws = [| 1.; -3.; 4.; -1.; 2.; -5. |] in
  let m a b = Oracle.max_segment ws ~a ~b in
  Alcotest.(check (option (float 0.))) "whole" (Some 5.) (m 0 5);
  Alcotest.(check (option (float 0.))) "prefix" (Some 1.) (m 0 1);
  Alcotest.(check (option (float 0.))) "single negative" (Some (-3.)) (m 1 1);
  Alcotest.(check (option (float 0.))) "empty" None (m 3 2);
  let xs = [| 0.5; 1.; 2.; 3. |] in
  Alcotest.(check (pair int int)) "closed coordinate range" (1, 2)
    (Oracle.index_range xs ~lo:1. ~hi:2.);
  Alcotest.(check (pair int int)) "range between points" (2, 1)
    (Oracle.index_range xs ~lo:1.5 ~hi:1.9)

let preload = [| (3., 0., 2.); (1., 0., 5.); (2., 0., 1.) |]

let mirror () =
  let m = Oracle.mirror_of_preload preload in
  Alcotest.(check int) "acked after preload" 3 (Oracle.acked m);
  let h = Oracle.mirror_insert m ~x:0.5 ~y:0. ~w:4. in
  Alcotest.(check int) "dense handle" 3 h;
  Alcotest.(check bool) "delete live" true (Oracle.mirror_delete m 1);
  Alcotest.(check bool) "delete twice" false (Oracle.mirror_delete m 1);
  Alcotest.(check int) "acked" 5 (Oracle.acked m);
  let xs, ws = Oracle.columns (Oracle.current m) in
  Alcotest.(check (array (float 0.))) "sorted coordinates" [| 0.5; 2.; 3. |] xs;
  Alcotest.(check (array (float 0.))) "weights in order" [| 4.; 1.; 2. |] ws;
  let at4 = Option.get (Oracle.state_at m 4) in
  Alcotest.(check int) "history keeps seq 4" 4 (List.length (Oracle.Fmap.bindings at4));
  Alcotest.(check bool) "no state past acked" true (Oracle.state_at m 6 = None)

(* {1 Reply checks} *)

let answer ?(x = 0.) ?(y = 0.) ?(source = Proto.Exact) value =
  Proto.Solved (Outcome.Complete { Proto.x; y; value; verified = true; source })

let solve_checks () =
  let pts = [| (0., 0., 1.); (1., 0., 2.); (0.5, 0.8, 3.); (9., 9., 4.) |] in
  let w = Proto.Solve_weighted { radius = 1.; deadline = None; points = pts } in
  ok "weighted right" (Oracle.check_solve w (answer 6.));
  rejected "weighted off by one" (Oracle.check_solve w (answer 7.));
  rejected "weighted not exact"
    (Oracle.check_solve w (answer ~source:Proto.Approx_fallback 6.));
  rejected "weighted degraded"
    (Oracle.check_solve w
       (Proto.Solved
          (Outcome.Degraded
             { Proto.x = 0.; y = 0.; value = 6.; verified = true; source = Proto.Exact })));
  let c =
    Proto.Solve_colored
      {
        radius = 1.;
        deadline = None;
        seed = 0;
        max_shifts = None;
        points = [| (0., 0.); (0.5, 0.); (1., 0.) |];
        colors = [| 0; 0; 1 |];
      }
  in
  ok "colored right" (Oracle.check_solve c (answer 2.));
  rejected "colored off by one" (Oracle.check_solve c (answer 3.));
  let i =
    Proto.Solve_interval { len = 4.; points = [| (6., 1.); (0., 1.); (5., 4.); (1., 2.) |] }
  in
  ok "interval right" (Oracle.check_solve i (answer 6.));
  rejected "interval off by one" (Oracle.check_solve i (answer 5.));
  let s =
    Proto.Solve_static { radius = 1.; epsilon = 0.4; seed = 0; max_shifts = None; points = pts }
  in
  ok "static achievable below optimum" (Oracle.check_solve s (answer ~x:9. ~y:9. 4.));
  rejected "static above the optimum" (Oracle.check_solve s (answer ~x:0.5 ~y:0.3 7.));
  rejected "static centre covers less" (Oracle.check_solve s (answer ~x:9. ~y:9. 5.))

let session_checks () =
  let m = Oracle.mirror_of_preload preload in
  rejected "insert wrong seq"
    (Oracle.check_inserted m ~x:0.5 ~y:0. ~w:4. (Proto.Inserted { handle = 3; seq = 5 }));
  let m = Oracle.mirror_of_preload preload in
  rejected "insert wrong handle"
    (Oracle.check_inserted m ~x:0.5 ~y:0. ~w:4. (Proto.Inserted { handle = 4; seq = 4 }));
  let m = Oracle.mirror_of_preload preload in
  ok "insert right" (Oracle.check_inserted m ~x:0.5 ~y:0. ~w:4. (Proto.Inserted { handle = 3; seq = 4 }));
  rejected "delete wrong seq" (Oracle.check_deleted m 0 (Proto.Deleted { seq = 6 }));
  ok "delete right" (Oracle.check_deleted m 2 (Proto.Deleted { seq = 6 }));
  (* live now: x=0.5 (w 4), x=1 (w 5) *)
  let live = Oracle.current m in
  ok "best achievable" (Oracle.check_best ~radius:1. live (Proto.Best (Some (0.75, 0., 9.))));
  rejected "best off by one" (Oracle.check_best ~radius:1. live (Proto.Best (Some (0.75, 0., 10.))));
  rejected "best None over live points" (Oracle.check_best ~radius:1. live (Proto.Best None));
  ok "best None when empty"
    (Oracle.check_best ~radius:1. Oracle.Fmap.empty (Proto.Best None))

let range_reply ?(epoch = 1) ?(lag_ops = 0) seg = Proto.Range_best { seg; epoch; lag_ops }

let range_checks () =
  (* seq 3: x 1 (w 5), 2 (w 1), 3 (w 2); seq 4 adds x 0.5 (w 4). *)
  let m = Oracle.mirror_of_preload preload in
  ignore (Oracle.mirror_insert m ~x:0.5 ~y:0. ~w:4. : int);
  let check ?(floor = 0) reply = Oracle.check_range m ~floor ~lo:0. ~hi:2.5 reply in
  (match check (range_reply (Some (0, 2, 10.))) with
  | Ok (Oracle.Consistent 4) -> ()
  | _ -> Alcotest.fail "right segment at the acked seq");
  rejected "sum off by one" (check (range_reply (Some (0, 2, 11.))));
  rejected "shifted segment" (check (range_reply (Some (1, 3, 8.))));
  rejected "segment not maximal" (check (range_reply (Some (1, 2, 6.))));
  rejected "None over a non-empty range" (check (range_reply None));
  (* At seq 3 the range holds x 1 and 2: segment [0,1] sums to 6. *)
  (match check (range_reply ~lag_ops:1 (Some (0, 1, 6.))) with
  | Ok (Oracle.Consistent 3) -> ()
  | _ -> Alcotest.fail "lagging index names seq 3");
  rejected "lag naming a state the segment does not match"
    (check (range_reply ~lag_ops:1 (Some (0, 2, 10.))));
  (match check ~floor:3 (range_reply ~lag_ops:0 (Some (0, 1, 6.))) with
  | Ok (Oracle.Lag_mismatch 3) -> ()
  | _ -> Alcotest.fail "segment of an earlier epoch with a newer lag");
  rejected "earlier than the floor" (check ~floor:4 (range_reply ~lag_ops:0 (Some (0, 1, 6.))));
  rejected "fallback scan must match the acked seq"
    (check (range_reply ~epoch:0 (Some (0, 1, 6.))))

let () =
  Alcotest.run "perfbench oracles"
    [
      ( "oracles",
        [
          Alcotest.test_case "disk brute force" `Quick disk;
          Alcotest.test_case "colour brute force" `Quick colored;
          Alcotest.test_case "interval two-pointer" `Quick interval;
          Alcotest.test_case "max-sum segment scan" `Quick segment;
          Alcotest.test_case "live-set mirror" `Quick mirror;
        ] );
      ( "reply checks",
        [
          Alcotest.test_case "solve replies" `Quick solve_checks;
          Alcotest.test_case "session replies" `Quick session_checks;
          Alcotest.test_case "range replies" `Quick range_checks;
        ] );
    ]
