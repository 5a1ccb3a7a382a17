(* The benchmark's own statistics, and the agreement between its metric
   catalog, BENCHMARK.json and METRICS.md. *)

open Setagree_util

let close = Alcotest.float 1e-9
let floats = Alcotest.(list (float 1e-9))

let median () =
  Alcotest.check close "odd" 3.0 (Pstats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Pstats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "single" 7.0 (Pstats.median [ 7.0 ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let quartiles () =
  Alcotest.check floats "1..4" [ 1.25; 2.5; 3.75 ] (Pstats.quantiles [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check floats "unsorted" [ 1.5; 3.0; 8.5 ]
    (Pstats.quantiles [ 3.0; 1.0; 2.0; 10.0; 7.0 ]);
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (Pstats.quantiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "ties" [ 5.0; 5.0; 5.0 ] (Pstats.quantiles [ 5.0; 5.0 ]);
  Alcotest.check close "spread 1..10" ((8.25 -. 2.75) /. 5.5)
    (Pstats.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "spread of one sample" 0.0 (Pstats.spread [ 4.0 ])

let tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let check name n label v =
    Alcotest.(check (pair string (float 1e-9))) name (label, v) (Pstats.tail (upto n))
  in
  check "100 samples: p90 leaves ten" 100 "p90" 90.0;
  check "1000 samples: p99 leaves ten" 1000 "p99" 990.0;
  check "20000 samples: p99.9" 20000 "p99.9" 19980.0;
  check "20 samples: p50" 20 "p50" 10.0;
  check "19 samples: max" 19 "max" 19.0;
  check "one sample: max" 1 "max" 1.0;
  (* Ties: the rank decides, not the value. *)
  Alcotest.(check (pair string (float 1e-9)))
    "flat" ("p90", 3.0)
    (Pstats.tail (List.init 100 (fun _ -> 3.0)))

let vmhwm () =
  let status =
    "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
  in
  Alcotest.(check (option (float 1e-9))) "kB to MiB" (Some (123456.0 /. 1024.0))
    (Pstats.vmhwm_mb status);
  Alcotest.(check (option (float 1e-9))) "absent" None (Pstats.vmhwm_mb "VmRSS:\t 1 kB\n");
  Alcotest.(check (option (float 1e-9))) "malformed" None (Pstats.vmhwm_mb "VmHWM:\t lots kB\n");
  Alcotest.(check (option (float 1e-9))) "other unit" None (Pstats.vmhwm_mb "VmHWM:\t 12 MB\n");
  Alcotest.(check bool) "this process" true
    (match Pstats.peak_rss_mb "self" with Some mb -> mb > 0.0 | None -> false)

let names_of section =
  let j =
    match Option.map Json.of_string (Pstats.read_file "../../BENCHMARK.json") with
    | Some (Ok j) -> j
    | _ -> Alcotest.fail "BENCHMARK.json unreadable"
  in
  match Json.member section j with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | Some (Json.String n), None -> (n, "")
          | _ -> Alcotest.fail "entry without a name")
        ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ section)

let catalog () =
  let sorted l = List.sort compare l in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted Catalog.end_to_end) (sorted (names_of "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted Catalog.per_layer) (sorted (names_of "per_layer"));
  Alcotest.(check (list string))
    "workloads" (sorted Catalog.workloads)
    (sorted (List.map fst (names_of "workloads")));
  let doc = Option.get (Pstats.read_file "../METRICS.md") in
  let mentions name =
    let pat = "`" ^ name ^ "`" in
    let lp = String.length pat and ld = String.length doc in
    let rec go i = i + lp <= ld && (String.sub doc i lp = pat || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) (n ^ " documented in METRICS.md") true (mentions n))
    (Catalog.end_to_end @ Catalog.per_layer @ List.map (fun w -> (w, "")) Catalog.workloads)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "quartiles" `Quick quartiles;
          Alcotest.test_case "tail" `Quick tail;
          Alcotest.test_case "vmhwm" `Quick vmhwm;
        ] );
      ("catalog", [ Alcotest.test_case "benchmark and doc agree" `Quick catalog ]);
    ]
