(* The experiment harness: one function per paper figure / theorem (the
   experiment index of DESIGN.md §4).  Each experiment prints a
   paper-shaped table; `Bench_main` runs them all and the output is the
   repository's reproduction record (EXPERIMENTS.md quotes it). *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core
open Setagree_runner

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

let ok_str v = if Check.verdict_ok v then "OK" else "FAIL"

(* Seed sweeps go through the campaign engine: jobs run on
   [Runner.default_jobs] domains (override with BENCH_JOBS), rows print
   in canonical job order regardless of interleaving, and every
   campaign lands in _results/BENCH_<exp>.json.  Failing jobs are
   collected by [Bench_main] into _results/failures.json. *)
let campaign ?header ~exp jobs =
  let c = Runner.run ~exp jobs in
  (match header with Some h -> print_endline h | None -> ());
  List.iter print_endline (Runner.rows c);
  let path = Runner.write_artifact c in
  Printf.printf "[%s] %d jobs on %d domain(s): %d failed, %.2fs wall, %.1f jobs/s -> %s\n"
    exp
    (Array.length c.Runner.c_results)
    c.Runner.c_workers
    (List.length (Runner.failures c))
    c.Runner.c_wall_s c.Runner.c_throughput path;
  c

let fdkit_replay fmt = Printf.ksprintf (fun s -> "dune exec bin/fdkit.exe -- " ^ s) fmt

(* Common knobs: n = 8, t = 3 gives a 4-row grid and room for interesting
   (x, y) sweeps while keeping ring sizes small. *)
let n = 8
let t = 3
let gst = 40.0

let setup ?(horizon = 400.0) ?(crashes = 0) ~seed () =
  let sim = Sim.create ~horizon ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 20.0) }) ~n ~t rng);
  sim

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1, positive half: every class of row z yields z-set
   agreement, through the paper's own reductions.                      *)
(* ------------------------------------------------------------------ *)

type e1_row = {
  z : int;
  source : string;
  verdict : string;
  rounds : int;
  msgs : int;
}

let e1_run_cell ~z ~source ~seed =
  let crashes = min 2 t in
  let sim = setup ~horizon:2000.0 ~crashes ~seed () in
  let behavior = Behavior.stormy ~gst in
  let omega =
    match source with
    | `Es ->
        let x = t - z + 2 in
        let suspector, _ = Oracle.es_x sim ~x ~behavior () in
        Wheels.omega (Reduce.omega_from_es sim ~suspector ~x ())
    | `Phi ->
        let y = t - z + 1 in
        let querier, _ = Oracle.ephi_y sim ~y ~behavior () in
        Wheels.omega (Reduce.omega_from_phi sim ~querier ~y ())
    | `Psi ->
        let y = t - z + 1 in
        let querier, _ = Oracle.psi_y sim ~y ~behavior () in
        Psi_to_omega.omega (Reduce.omega_from_psi sim ~querier ~y)
    | `Oracle ->
        let omega, _ = Oracle.omega_z sim ~z ~behavior () in
        omega
  in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Reduce.solve_kset sim ~omega ~proposals () in
  let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  let v = Check.k_set_agreement sim ~k:z ~proposals ~decisions:(Kset.decisions h) in
  let name =
    match source with
    | `Es -> Printf.sprintf "◇S_%d (wheels y=0)" (t - z + 2)
    | `Phi -> Printf.sprintf "◇φ_%d (wheels x=1)" (t - z + 1)
    | `Psi -> Printf.sprintf "Ψ_%d (Fig 8 chain)" (t - z + 1)
    | `Oracle -> Printf.sprintf "Ω_%d (oracle)" z
  in
  { z; source = name; verdict = ok_str v; rounds = Kset.max_round h; msgs = Kset.messages_sent h }

let e1 () =
  section "E1  Figure 1 grid, positive half: row z solves z-set agreement (n=8, t=3)";
  let jobs =
    List.concat_map
      (fun z ->
        List.map
          (fun source ->
            let seed = 1000 + z in
            let sname =
              match source with
              | `Oracle -> "oracle"
              | `Es -> "es"
              | `Phi -> "phi"
              | `Psi -> "psi"
            in
            Runner.job ~exp:"e1" ~seed
              ~label:(Printf.sprintf "z=%d source=%s" z sname)
              ~params:[ ("z", Json.Int z); ("source", Json.String sname) ]
              ~replay:
                (fdkit_replay "kset -n %d -t %d -z %d -k %d --crashes %d --seed %d" n t
                   z z (min 2 t) seed)
              (fun () ->
                let r = e1_run_cell ~z ~source ~seed in
                Runner.body
                  ~metrics:
                    [ ("rounds", float_of_int r.rounds); ("msgs", float_of_int r.msgs) ]
                  ~row:
                    (Printf.sprintf "%-3d  %-22s  %-8s  %-6d  %-8d" r.z r.source r.verdict
                       r.rounds r.msgs)
                  (r.verdict = "OK")))
          [ `Oracle; `Es; `Phi; `Psi ])
      (List.init (t + 1) (fun i -> i + 1))
  in
  ignore
    (campaign ~exp:"e1"
       ~header:
         (Printf.sprintf "%-3s  %-22s  %-8s  %-6s  %-8s" "z" "omega source" "z-set" "rounds"
            "msgs")
       jobs)

(* ------------------------------------------------------------------ *)
(* E2 — Figure 1, weakest of each row (Theorem 5 tightness): Ω_z fails
   (z-1)-set agreement, succeeds at z.                                 *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  Theorem 5 tightness: Omega_z vs k-set agreement (n=7, t=2)";
  let seeds = List.init 25 (fun i -> i + 1) in
  Printf.printf "%-4s %-4s  %-12s  %s\n" "z" "k" "prediction" "outcome";
  List.iter
    (fun (z, k) ->
      let r = Indist.kset_violation_search ~n:7 ~t:2 ~z ~k ~seeds in
      Printf.printf "%-4d %-4d  %-12s  %s\n" z k
        (if k < z then "violable" else "safe")
        (String.concat " | " ((if r.ok then "as predicted" else "UNEXPECTED") :: r.details)))
    [ (2, 1); (3, 2); (3, 1); (1, 1); (2, 2); (3, 3) ]

(* ------------------------------------------------------------------ *)
(* E3 — Figure 2 / Theorem 8 sufficiency: the full (x, y) sweep.       *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Additivity sweep (Fig 2): ◇S_x + ◇φ_y -> Omega_{t+2-x-y} (n=8, t=3)";
  let jobs =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun y ->
            if not (Bounds.wheels_admissible ~n ~t ~x ~y) then None
            else
              let seed = 2000 + (x * 10) + y in
              Some
                (Runner.job ~exp:"e3" ~seed
                   ~label:(Printf.sprintf "x=%d y=%d" x y)
                   ~params:
                     [
                       ("x", Json.Int x);
                       ("y", Json.Int y);
                       ("z", Json.Int (Bounds.z_of_addition ~t ~x ~y));
                     ]
                   ~replay:
                     (fdkit_replay "wheels -n %d -t %d -x %d -y %d --crashes 2 --seed %d"
                        n t x y seed)
                   (fun () ->
                     let horizon = 400.0 in
                     let sim = setup ~horizon ~crashes:2 ~seed () in
                     let behavior = Behavior.stormy ~gst in
                     let suspector, _ = Oracle.es_x sim ~x ~behavior () in
                     let querier, _ = Oracle.ephi_y sim ~y ~behavior () in
                     let w = Wheels.install sim ~suspector ~querier ~x ~y () in
                     let omega = Wheels.omega w in
                     let mon =
                       Monitor.watch sim ~every:0.5 ~read:(fun i -> omega.Iface.trusted i) ()
                     in
                     let _ = Sim.run sim in
                     let v = Check.omega_z sim ~z:(Wheels.z w) ~deadline:(horizon -. 80.0) mon in
                     Runner.body
                       ~notes:(if Check.verdict_ok v then [] else v.Check.notes)
                       ~metrics:
                         [
                           ("stab", Wheels.stabilized_since w);
                           ( "x_moves",
                             float_of_int (Wheels_lower.moves_broadcast (Wheels.lower w)) );
                           ( "l_moves",
                             float_of_int (Wheels_upper.moves_broadcast (Wheels.upper w)) );
                           ("msgs", float_of_int (Wheels.total_messages w));
                         ]
                       ~row:
                         (Printf.sprintf "%-3d %-3d %-3d  %-10s  %-9.1f  %-8d %-8d %-9d" x y
                            (Wheels.z w) (ok_str v) (Wheels.stabilized_since w)
                            (Wheels_lower.moves_broadcast (Wheels.lower w))
                            (Wheels_upper.moves_broadcast (Wheels.upper w))
                            (Wheels.total_messages w))
                       (Check.verdict_ok v))))
          (List.init (t + 1) (fun y -> y)))
      (List.init (t + 1) (fun i -> i + 1))
  in
  ignore
    (campaign ~exp:"e3"
       ~header:
         (Printf.sprintf "%-3s %-3s %-3s  %-10s  %-9s  %-8s %-8s %-9s" "x" "y" "z" "Omega_z?"
            "stab@" "x_moves" "l_moves" "msgs")
       jobs);
  Printf.printf
    "\nheadline: x=%d (=t), y=1 gives z=1 — the addition solves consensus while\n\
     ◇S_t alone only reaches 2-set agreement and ◇φ_1 alone only t-set.\n"
    t

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 8 necessity: at x + y + z = t + 1 the construction
   cannot exist; concretely, the wheels' output fails the Omega_{z-1}
   certificate, and a legal Omega_z history breaks (z-1)-set agreement. *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  Theorem 8 necessity: x + y + z >= t + 2 is required";
  let x = 2 and y = 1 in
  let z = Bounds.z_of_addition ~t ~x ~y in
  let horizon = 400.0 in
  let sim = setup ~horizon ~crashes:1 ~seed:3001 () in
  let behavior = Behavior.stormy ~gst in
  let suspector, _ = Oracle.es_x sim ~x ~behavior () in
  let querier, _ = Oracle.ephi_y sim ~y ~behavior () in
  let w = Wheels.install sim ~suspector ~querier ~x ~y () in
  let omega = Wheels.omega w in
  let mon = Monitor.watch sim ~every:0.5 ~read:(fun i -> omega.Iface.trusted i) () in
  let _ = Sim.run sim in
  let v_z = Check.omega_z sim ~z ~deadline:(horizon -. 80.0) mon in
  let v_zm1 = Check.omega_z sim ~z:(z - 1) ~deadline:(horizon -. 80.0) mon in
  Printf.printf "x=%d y=%d: construction delivers Omega_%d: %s\n" x y z (ok_str v_z);
  Printf.printf "same history checked as Omega_%d: %s (as the theorem demands)\n" (z - 1)
    (ok_str v_zm1);
  Printf.printf "semantic gap (legal Omega_%d cannot do %d-set): see E2 row (z=%d,k=%d)\n" z
    (z - 1) z (z - 1);
  Printf.printf "bounds: addition_possible x=%d y=%d z=%d -> %b; z-1 -> %b\n" x y z
    (Bounds.addition_possible ~t ~x ~y ~z)
    (Bounds.addition_possible ~t ~x ~y ~z:(z - 1));
  (* And the constructed detector is not secretly stronger: driving k-set
     agreement with k = z-1 over the wheels' own output admits agreement
     violations (legal tie-breaks, perfect-from-start class inputs). *)
  let violated = ref None in
  let seeds = List.init 20 (fun i -> i + 1) in
  List.iter
    (fun seed ->
      if !violated = None then begin
        let sim = Sim.create ~horizon:600.0 ~n ~t ~seed () in
        let suspector, _ = Oracle.es_x sim ~x ~behavior:Behavior.perfect () in
        let querier, _ = Oracle.ephi_y sim ~y ~behavior:Behavior.perfect () in
        let w = Wheels.install sim ~suspector ~querier ~x ~y () in
        let proposals = Array.init n (fun i -> 100 + i) in
        let h =
          Kset.install sim ~omega:(Wheels.omega w) ~proposals ~tie_break:Kset.By_pid ()
        in
        let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
        let d = Indist.distinct_decisions (Kset.decisions h) in
        if d > z - 1 then violated := Some (seed, d)
      end)
    seeds;
  (match !violated with
  | Some (seed, d) ->
      Printf.printf
        "wheels-built Omega_%d driving %d-set agreement: %d distinct decisions at seed %d \
         (> k, as the lower bound demands)\n"
        z (z - 1) d seed
  | None ->
      Printf.printf
        "wheels-built Omega_%d: no %d-set violation in %d seeds (violations are \
         schedule-dependent; the oracle-based search in E2 is the canonical witness)\n"
        z (z - 1) (List.length seeds))

(* ------------------------------------------------------------------ *)
(* E5 — Figure 3 performance: rounds / messages / latency.             *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Figure 3 algorithm performance (n=8, t=3)";
  let jobs =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun crashes ->
            [ (k, crashes, "perfect"); (k, crashes, "stormy gst=40") ])
          [ 0; t ])
      [ 1; 2; 3 ]
    |> List.map (fun (k, crashes, bname) ->
           let seed = 4000 + k + crashes in
           Runner.job ~exp:"e5" ~seed
             ~label:(Printf.sprintf "k=%d crashes=%d %s" k crashes bname)
             ~params:
               [
                 ("k", Json.Int k);
                 ("crashes", Json.Int crashes);
                 ("oracle", Json.String bname);
               ]
             ~replay:
               (fdkit_replay "kset -n %d -t %d -z %d -k %d --crashes %d --gst %g --seed %d"
                  n t k k crashes
                  (if bname = "perfect" then 0.0 else gst)
                  seed)
             (fun () ->
               let p =
                 {
                   Protocol.default with
                   Protocol.n;
                   t;
                   seed;
                   z = k;
                   k;
                   gst = (if bname = "perfect" then 0.0 else gst);
                   horizon = 3000.0;
                   crashes = Crash.Exactly { crashes; window = (0.0, 20.0) };
                 }
               in
               let r = Protocol.run (Option.get (Protocol.find "kset")) p in
               let v = r.Protocol.rp_verdict in
               let metric name =
                 Option.value ~default:0.0 (List.assoc_opt name r.Protocol.rp_metrics)
               in
               Runner.body
                 ~notes:(if Check.verdict_ok v then [] else v.Check.notes)
                 ~metrics:r.Protocol.rp_metrics
                 ~row:
                   (Printf.sprintf "%-4d %-8d %-18s  %-7d %-8d %-10.1f %-6s" k crashes bname
                      (int_of_float (metric "rounds"))
                      (int_of_float (metric "msgs"))
                      (metric "latency") (ok_str v))
                 (Check.verdict_ok v)))
  in
  ignore
    (campaign ~exp:"e5"
       ~header:
         (Printf.sprintf "%-4s %-8s %-18s  %-7s %-8s %-10s %-6s" "k" "crashes" "oracle"
            "rounds" "msgs" "latency" "k-set")
       jobs)

(* E5b — oracle efficiency and zero degradation *)

let e5b () =
  subsection "E5b  oracle-efficiency / zero-degradation (perfect oracle => 1 round)";
  Printf.printf "%-26s %-7s\n" "scenario" "rounds";
  List.iter
    (fun (name, crashes) ->
      let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed:4100 () in
      Sim.install_crashes sim crashes;
      let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:Behavior.perfect () in
      let proposals = Array.init n (fun i -> 100 + i) in
      let h = Kset.install sim ~omega ~proposals () in
      let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
      Printf.printf "%-26s %-7d\n" name (Kset.max_round h))
    [
      ("no crash", []);
      ("1 initial crash", [ (7, 0.0) ]);
      ("t initial crashes", [ (5, 0.0); (6, 0.0); (7, 0.0) ]);
    ]

(* E5c — decision latency and round statistics over many seeds. *)

let e5c () =
  subsection "E5c  statistics over 30 seeds (k = 1, stormy gst = 40)";
  let jobs =
    List.concat_map
      (fun crashes ->
        List.init 30 (fun i ->
            let seed = 4200 + i + 1 in
            Runner.job ~exp:"e5c" ~seed
              ~label:(Printf.sprintf "crashes=%d seed=%d" crashes seed)
              ~params:[ ("crashes", Json.Int crashes) ]
              ~replay:
                (fdkit_replay "kset -n %d -t %d -z 1 -k 1 --crashes %d --seed %d" n t
                   crashes seed)
              (fun () ->
                let sim = setup ~horizon:3000.0 ~crashes ~seed () in
                let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst) () in
                let proposals = Array.init n (fun i -> 100 + i) in
                let h = Kset.install sim ~omega ~proposals () in
                let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
                let v =
                  Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h)
                in
                Runner.body
                  ~notes:(if Check.verdict_ok v then [] else v.Check.notes)
                  ~metrics:
                    [ ("latency", o.end_time); ("rounds", float_of_int (Kset.max_round h)) ]
                  (Check.verdict_ok v))))
      [ 0; t ]
  in
  let c = campaign ~exp:"e5c" jobs in
  Printf.printf "%-10s %-50s\n" "metric" "distribution";
  let samples name crashes =
    Array.to_list c.Runner.c_results
    |> List.filter (fun r ->
           List.assoc_opt "crashes" r.Runner.r_params = Some (Json.Int crashes))
    |> List.filter_map (fun r -> List.assoc_opt name r.Runner.r_metrics)
  in
  List.iter
    (fun crashes ->
      List.iter
        (fun name ->
          (* summarize_opt: a sweep whose jobs all raised has no samples,
             and the report must still come out. *)
          match Stats.summarize_opt (samples name crashes) with
          | Some s ->
              Printf.printf "%-10s %-50s\n"
                (Printf.sprintf "%s/%d" name crashes)
                (Format.asprintf "%a" Stats.pp_summary s)
          | None -> Printf.printf "%-10s no samples\n" (Printf.sprintf "%s/%d" name crashes))
        [ "latency"; "rounds" ])
    [ 0; t ];
  Printf.printf "(metric/c = with c crashes; latency in virtual time units)\n"

(* ------------------------------------------------------------------ *)
(* E6 — Figures 5-6: wheels convergence vs n, x, y, crash pattern.     *)
(* ------------------------------------------------------------------ *)

let e6_render ~label ~n:nn ~x ~y w =
  Printf.sprintf "%-22s %-3d %-3d %-3d %-3d  %-9.1f %-8d %-8d %-9d" label nn x y
    (Wheels.z w) (Wheels.stabilized_since w)
    (Wheels_lower.moves_broadcast (Wheels.lower w))
    (Wheels_upper.moves_broadcast (Wheels.upper w))
    (Wheels.total_messages w)

let e6_metrics w =
  [
    ("stab", Wheels.stabilized_since w);
    ("x_moves", float_of_int (Wheels_lower.moves_broadcast (Wheels.lower w)));
    ("l_moves", float_of_int (Wheels_upper.moves_broadcast (Wheels.upper w)));
    ("msgs", float_of_int (Wheels.total_messages w));
  ]

let e6_job ~n:nn ~t:tt ~x ~y ~crashes ~label ~seed =
  Runner.job ~exp:"e6" ~seed
    ~label:(Printf.sprintf "%s n=%d x=%d y=%d" label nn x y)
    ~params:
      [
        ("scenario", Json.String label);
        ("n", Json.Int nn);
        ("t", Json.Int tt);
        ("x", Json.Int x);
        ("y", Json.Int y);
        ("crashes", Json.Int crashes);
      ]
    ~replay:
      (fdkit_replay "wheels -n %d -t %d -x %d -y %d --crashes %d --seed %d" nn tt x y
         crashes seed)
    (fun () ->
      let horizon = 400.0 in
      let sim = Sim.create ~horizon ~n:nn ~t:tt ~seed () in
      let rng = Rng.split_named (Sim.rng sim) "crash" in
      Sim.install_crashes sim
        (Crash.generate (Crash.Exactly { crashes; window = (0.0, 20.0) }) ~n:nn ~t:tt rng);
      let behavior = Behavior.stormy ~gst in
      let suspector, _ = Oracle.es_x sim ~x ~behavior () in
      let querier, _ = Oracle.ephi_y sim ~y ~behavior () in
      let w = Wheels.install sim ~suspector ~querier ~x ~y () in
      let _ = Sim.run sim in
      (* Quiescence is the claim under test: the rings must stop moving
         well before the horizon. *)
      let quiesced = Wheels.stabilized_since w < horizon -. 80.0 in
      Runner.body
        ~notes:(if quiesced then [] else [ "rings still moving near the horizon" ])
        ~metrics:(e6_metrics w)
        ~row:(e6_render ~label ~n:nn ~x ~y w)
        quiesced)

let e6 () =
  section "E6  Wheels convergence (Figs 5-6): stabilization and quiescence";
  let jobs =
    List.concat
      [
        List.mapi
          (fun i nn -> e6_job ~n:nn ~t:2 ~x:2 ~y:1 ~crashes:1 ~label:"n sweep" ~seed:(5000 + i))
          [ 5; 6; 7; 8 ];
        List.mapi
          (fun i x ->
            e6_job ~n:8 ~t:3 ~x ~y:0 ~crashes:2 ~label:"x sweep (y=0)" ~seed:(5100 + i))
          [ 1; 2; 3; 4 ];
        List.mapi
          (fun i y ->
            e6_job ~n:8 ~t:3 ~x:1 ~y ~crashes:2 ~label:"y sweep (x=1)" ~seed:(5200 + i))
          [ 0; 1; 2; 3 ];
        (* The degenerate whole-X-dead case: crash the ring's first X = {p0,p1}. *)
        [
          Runner.job ~exp:"e6" ~seed:5300 ~label:"initial X all dead"
            ~params:
              [
                ("scenario", Json.String "initial X all dead");
                ("n", Json.Int 6);
                ("t", Json.Int 2);
                ("x", Json.Int 2);
                ("y", Json.Int 0);
              ]
            ~replay:(fdkit_replay "wheels -n 6 -t 2 -x 2 -y 0 --crashes 2 --seed 5300")
            (fun () ->
              let sim = Sim.create ~horizon:400.0 ~n:6 ~t:2 ~seed:5300 () in
              Sim.install_crashes sim [ (0, 0.0); (1, 0.0) ];
              let suspector, _ = Oracle.es_x sim ~x:2 ~behavior:(Behavior.calm ~gst) () in
              let querier, _ = Oracle.ephi_y sim ~y:0 ~behavior:(Behavior.calm ~gst) () in
              let w = Wheels.install sim ~suspector ~querier ~x:2 ~y:0 () in
              let _ = Sim.run sim in
              let quiesced = Wheels.stabilized_since w < 400.0 -. 80.0 in
              Runner.body
                ~notes:(if quiesced then [] else [ "rings still moving near the horizon" ])
                ~metrics:(e6_metrics w)
                ~row:(e6_render ~label:"initial X all dead" ~n:6 ~x:2 ~y:0 w)
                quiesced);
        ];
      ]
  in
  ignore
    (campaign ~exp:"e6"
       ~header:
         (Printf.sprintf "%-22s %-3s %-3s %-3s %-3s  %-9s %-8s %-8s %-9s" "scenario" "n" "x"
            "y" "z" "stab@" "x_moves" "l_moves" "msgs")
       jobs)

(* E6b — ablation: the wheels' scan period (the paper's implicit "a
   process keeps taking steps" rate).  Finer steps buy faster ring
   convergence at a linear message cost. *)

let e6b () =
  subsection "E6b  ablation: wheels scan period (n=6, t=2, x=2, y=1, 1 crash)";
  Printf.printf "%-7s  %-9s %-8s %-8s %-9s\n" "step" "stab@" "x_moves" "l_moves" "msgs";
  List.iter
    (fun step ->
      let sim = Sim.create ~horizon:400.0 ~n:6 ~t:2 ~seed:5400 () in
      let rng = Rng.split_named (Sim.rng sim) "crash" in
      Sim.install_crashes sim
        (Crash.generate (Crash.Exactly { crashes = 1; window = (0.0, 20.0) }) ~n:6 ~t:2 rng);
      let behavior = Behavior.stormy ~gst in
      let suspector, _ = Oracle.es_x sim ~x:2 ~behavior () in
      let querier, _ = Oracle.ephi_y sim ~y:1 ~behavior () in
      let w = Wheels.install sim ~suspector ~querier ~x:2 ~y:1 ~step () in
      let _ = Sim.run sim in
      Printf.printf "%-7.2f  %-9.1f %-8d %-8d %-9d\n" step (Wheels.stabilized_since w)
        (Wheels_lower.moves_broadcast (Wheels.lower w))
        (Wheels_upper.moves_broadcast (Wheels.upper w))
        (Wheels.total_messages w))
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* E7 — Figure 8: the Ψ chain vs the wheels, same target.              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Psi_y -> Omega_{t+1-y} (Fig 8) vs the generic wheels route";
  Printf.printf "%-3s %-3s  %-14s %-14s  %-12s %-14s\n" "y" "z" "psi certified"
    "wheels certified" "psi msgs" "wheels msgs";
  List.iter
    (fun y ->
      let z = t + 1 - y in
      let horizon = 400.0 in
      (* Psi route *)
      let sim1 = setup ~horizon ~crashes:2 ~seed:(6000 + y) () in
      let q1, _ = Oracle.psi_y sim1 ~y ~behavior:(Behavior.stormy ~gst) () in
      let p = Reduce.omega_from_psi sim1 ~querier:q1 ~y in
      let om1 = Psi_to_omega.omega p in
      let mon1 = Monitor.watch sim1 ~every:0.5 ~read:(fun i -> om1.Iface.trusted i) () in
      Sim.ticker sim1 ~every:1.0;
      let _ = Sim.run sim1 in
      let v1 = Check.omega_z sim1 ~z ~deadline:(horizon -. 80.0) mon1 in
      (* Wheels route *)
      let sim2 = setup ~horizon ~crashes:2 ~seed:(6000 + y) () in
      let q2, _ = Oracle.ephi_y sim2 ~y ~behavior:(Behavior.stormy ~gst) () in
      let w = Reduce.omega_from_phi sim2 ~querier:q2 ~y () in
      let om2 = Wheels.omega w in
      let mon2 = Monitor.watch sim2 ~every:0.5 ~read:(fun i -> om2.Iface.trusted i) () in
      let _ = Sim.run sim2 in
      let v2 = Check.omega_z sim2 ~z ~deadline:(horizon -. 80.0) mon2 in
      Printf.printf "%-3d %-3d  %-14s %-14s  %-12d %-14d\n" y z (ok_str v1) (ok_str v2) 0
        (Wheels.total_messages w))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E8 — Figure 9: strengthening to full scope, both substrates.        *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Strengthening (Fig 9): S_x + phi_y -> S / ◇-variants, x+y >= t+1 (n=8, t=3)";
  Printf.printf "%-4s %-3s %-3s %-10s %-10s  %-8s %-10s\n" "sub" "x" "y" "perpetual"
    "◇S cert" "refresh" "msgs";
  List.iter
    (fun (sub, x, y, eventual, seed) ->
      let horizon = 300.0 in
      let sim = setup ~horizon ~crashes:2 ~seed () in
      let behavior = Behavior.stormy ~gst:35.0 in
      let suspector, _ =
        if eventual then Oracle.es_x sim ~x ~behavior () else Oracle.s_x sim ~x ~behavior ()
      in
      let querier, _ =
        if eventual then Oracle.ephi_y sim ~y ~behavior ()
        else Oracle.phi_y sim ~y ~behavior ()
      in
      let st =
        match sub with
        | `Shm -> Strengthen.install_shm sim ~suspector ~querier ()
        | `Mp -> Strengthen.install_mp sim ~suspector ~querier ()
      in
      let out = Strengthen.output st in
      let mon = Monitor.watch sim ~every:0.5 ~read:(fun i -> out.Iface.suspected i) () in
      let _ = Sim.run sim in
      let v = Check.es_x sim ~x:n ~deadline:(horizon -. 80.0) mon in
      let msgs = Trace.counter (Sim.trace sim) "strengthen.hb.sent" in
      let refresh =
        Pidset.fold (fun i acc -> max acc (Strengthen.refreshes st i)) (Sim.correct_set sim) 0
      in
      Printf.printf "%-4s %-3d %-3d %-10s %-10s  %-8d %-10d\n"
        (match sub with `Shm -> "shm" | `Mp -> "mp")
        x y
        (if eventual then "no (◇)" else "yes")
        (ok_str v) refresh msgs)
    [
      (`Shm, 2, 2, true, 7001);
      (`Shm, 3, 1, true, 7002);
      (`Shm, 2, 2, false, 7003);
      (`Mp, 2, 2, true, 7004);
      (`Mp, 1, 3, true, 7005);
      (`Mp, 2, 2, false, 7006);
    ]

(* ------------------------------------------------------------------ *)
(* E9 — Theorems 10-12: the information-cap / indistinguishability
   scenarios.                                                          *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Irreducibility scenarios (Thms 10-12, Observation O1)";
  let show r = Format.printf "%a@.@." Indist.pp_report r in
  show (Indist.phi_blind_to_victims ~n ~t ~y:1 ~crashes:2 ~seed:8001);
  show (Indist.phi_blind_to_victims ~n ~t ~y:2 ~crashes:1 ~seed:8002);
  show (Indist.omega_blind_to_crashes ~n ~t ~z:1 ~seed:8003);
  show (Indist.omega_blind_to_crashes ~n ~t ~z:2 ~seed:8004);
  show (Indist.thm10_pair ~n ~t ~x:4 ~y:1 ~seed:8005 ());
  show (Indist.thm10_pair ~n ~t ~x:8 ~y:2 ~seed:8006 ());
  show (Indist.thm12_pair ~n ~t ~z:1 ~y:1 ~seed:8007);
  show (Indist.thm12_pair ~n ~t ~z:2 ~y:2 ~seed:8008)

(* ------------------------------------------------------------------ *)
(* E10 — §3.2 zero-degradation ablation: repeated instances after
   accumulated failures.                                               *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10  Zero-degradation ablation: consecutive instances, growing initial crashes";
  Printf.printf "%-9s %-16s %-7s\n" "instance" "initial crashes" "rounds";
  let crashed = ref [] in
  List.iteri
    (fun i _ ->
      let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed:(9000 + i) () in
      Sim.install_crashes sim (List.map (fun p -> (p, 0.0)) !crashed);
      let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:Behavior.perfect () in
      let proposals = Array.init n (fun j -> 100 + j) in
      let h = Kset.install sim ~omega ~proposals () in
      let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
      Printf.printf "%-9d %-16d %-7d\n" (i + 1) (List.length !crashed) (Kset.max_round h);
      (* One more process fails before the next instance, up to t. *)
      if List.length !crashed < t then crashed := (n - 1 - List.length !crashed) :: !crashed)
    [ (); (); (); () ]

(* ------------------------------------------------------------------ *)
(* E11 — the implemented stack: heartbeats + adaptive timeouts under
   partial synchrony give ◇P / Ω_z / ◇φ_y with no oracle; the paper's
   algorithms run on top unchanged.                                     *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11  Implemented detectors (heartbeats + adaptive timeouts, partial synchrony)";
  let horizon = 300.0 in
  let deadline = horizon -. 80.0 in
  Printf.printf "%-28s %-14s  %-10s %-10s\n" "detector" "crashes" "certified" "hb msgs";
  let crash_patterns =
    [ ("none", []); ("early p8", [ (7, 5.0) ]); ("3 staggered", [ (5, 5.0); (6, 35.0); (7, 60.0) ]) ]
  in
  List.iter
    (fun (cname, crashes) ->
      (* ◇P *)
      let sim = Sim.create ~horizon ~n ~t ~seed:9100 () in
      Sim.install_crashes sim crashes;
      let hb = Impl.install sim () in
      let susp = Impl.suspector hb in
      let mon = Monitor.watch sim ~every:0.5 ~read:(fun i -> susp.Iface.suspected i) () in
      let _ = Sim.run sim in
      Printf.printf "%-28s %-14s  %-10s %-10d\n" "suspector (◇P)" cname
        (ok_str (Check.es_x sim ~x:n ~deadline mon))
        (Impl.heartbeats_sent hb);
      (* Ω_1 *)
      let sim = Sim.create ~horizon ~n ~t ~seed:9200 () in
      Sim.install_crashes sim crashes;
      let hb = Impl.install sim () in
      let om = Impl.omega hb ~z:1 in
      let mon = Monitor.watch sim ~every:0.5 ~read:(fun i -> om.Iface.trusted i) () in
      let _ = Sim.run sim in
      Printf.printf "%-28s %-14s  %-10s %-10d\n" "leader (Omega_1)" cname
        (ok_str (Check.omega_z sim ~z:1 ~deadline mon))
        (Impl.heartbeats_sent hb);
      (* ◇φ_2 *)
      let sim = Sim.create ~horizon ~n ~t ~seed:9300 () in
      Sim.install_crashes sim crashes;
      let hb = Impl.install sim () in
      let q, qlog = Impl.querier hb ~y:2 in
      Sim.spawn sim ~pid:0 (fun () ->
          while true do
            ignore (q.Iface.query 0 (Pidset.of_list [ 5; 6 ]));
            ignore (q.Iface.query 0 (Pidset.of_list [ 0; 1 ]));
            Sim.sleep 2.0
          done);
      let _ = Sim.run sim in
      Printf.printf "%-28s %-14s  %-10s %-10d\n" "querier (◇φ_2)" cname
        (ok_str (Check.phi_y sim ~y:2 ~eventual:true ~deadline qlog))
        (Impl.heartbeats_sent hb))
    crash_patterns;
  subsection "full implemented pipeline: heartbeats -> Omega_1 -> consensus";
  let sim = Sim.create ~horizon:600.0 ~n ~t ~seed:9400 () in
  Sim.install_crashes sim [ (6, 7.0); (7, 22.0) ];
  let hb = Impl.install sim () in
  let om = Impl.omega hb ~z:1 in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega:om ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  Printf.printf "consensus: %s, rounds=%d, latency=%.1f (no oracle anywhere)\n"
    (ok_str (Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h)))
    (Kset.max_round h) o.end_time

(* ------------------------------------------------------------------ *)
(* E12 — baseline comparison: Omega-based consensus (Fig 3, k = 1) vs
   the rotating-coordinator ◇S route the paper builds upon.            *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12  Consensus routes: Omega-based (Fig 3, k=1) vs rotating-coordinator ◇S";
  Printf.printf "%-10s %-8s %-22s %-22s\n" "crashes" "seed" "Omega route (r, msgs)"
    "◇S route (r, msgs)";
  List.iter
    (fun (crashes, seed) ->
      let run_omega () =
        let sim = setup ~horizon:3000.0 ~crashes ~seed () in
        let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst) () in
        let proposals = Array.init n (fun i -> 100 + i) in
        let h = Kset.install sim ~omega ~proposals () in
        let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
        let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h) in
        (Kset.max_round h, Kset.messages_sent h, Check.verdict_ok v)
      in
      let run_s () =
        let sim = setup ~horizon:3000.0 ~crashes ~seed () in
        let suspector, _ = Oracle.es_x sim ~x:n ~behavior:(Behavior.stormy ~gst) () in
        let proposals = Array.init n (fun i -> 100 + i) in
        let h = Consensus_s.install sim ~suspector ~proposals () in
        let _ = Sim.run ~stop_when:(fun () -> Consensus_s.all_correct_decided h) sim in
        let v =
          Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Consensus_s.decisions h)
        in
        (Consensus_s.max_round h, Consensus_s.messages_sent h, Check.verdict_ok v)
      in
      let ro, mo, vo = run_omega () in
      let rs, ms, vs = run_s () in
      Printf.printf "%-10d %-8d %-22s %-22s\n" crashes seed
        (Printf.sprintf "%d, %d%s" ro mo (if vo then "" else " FAIL"))
        (Printf.sprintf "%d, %d%s" rs ms (if vs then "" else " FAIL")))
    [ (0, 1); (0, 2); (2, 3); (2, 4); (3, 5); (3, 6) ];
  Printf.printf
    "\nBoth routes decide one value.  Their pre-stabilization behaviour differs:\n\
     the Omega route cannot commit while the churning oracle keeps renaming\n\
     leaders, whereas the coordinator route decides as soon as one coordinator's\n\
     estimate outruns the (noisy) suspicions — but it can also burn a round per\n\
     suspected coordinator (seeds 4 and 5).  After stabilization both decide\n\
     within a constant number of rounds.\n"

(* ------------------------------------------------------------------ *)
(* E13 — scalability: the Figure 3 algorithm as n grows (the paper's
   keywords list scalability; the oracle path is n-independent, message
   cost is O(n^2) per round).                                           *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13  Scalability of the Figure 3 algorithm (z = k = 1, 2 crashes, gst = 40)";
  let jobs =
    List.map
      (fun nn ->
        let tt = (nn - 1) / 2 in
        let seed = 9500 + nn in
        Runner.job ~exp:"e13" ~seed
          ~label:(Printf.sprintf "n=%d" nn)
          ~params:[ ("n", Json.Int nn); ("t", Json.Int tt) ]
          ~replay:
            (fdkit_replay "kset -n %d -t %d -z 1 -k 1 --crashes %d --seed %d" nn tt
               (min 2 tt) seed)
          (fun () ->
            let p =
              {
                Protocol.default with
                Protocol.n = nn;
                t = tt;
                seed;
                z = 1;
                k = 1;
                gst;
                horizon = 3000.0;
                crashes = Crash.Exactly { crashes = min 2 tt; window = (0.0, 20.0) };
              }
            in
            let r = Protocol.run (Option.get (Protocol.find "kset")) p in
            let v = r.Protocol.rp_verdict in
            let metric name =
              Option.value ~default:0.0 (List.assoc_opt name r.Protocol.rp_metrics)
            in
            let rounds = int_of_float (metric "rounds") in
            let msgs = int_of_float (metric "msgs") in
            Runner.body
              ~notes:(if Check.verdict_ok v then [] else v.Check.notes)
              ~metrics:
                (r.Protocol.rp_metrics
                @ [ ("msg_per_round", float_of_int (msgs / max 1 rounds)) ])
              ~row:
                (Printf.sprintf "%-5d %-5d  %-7d %-9d %-9.1f %-10d %-6s" nn tt rounds msgs
                   (metric "latency")
                   (msgs / max 1 rounds)
                   (ok_str v))
              (Check.verdict_ok v)))
      [ 5; 9; 15; 21; 31; 41 ]
  in
  ignore
    (campaign ~exp:"e13"
       ~header:
         (Printf.sprintf "%-5s %-5s  %-7s %-9s %-9s %-10s %-6s" "n" "t" "rounds" "msgs"
            "latency" "msg/round" "k-set")
       jobs)

(* ------------------------------------------------------------------ *)
(* E14 — the reliable-channel assumption, implemented: consensus over
   fair-lossy links via the stubborn transport.                        *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  Consensus over fair-lossy links (stubborn transport restores §2.1)";
  Printf.printf "%-8s  %-7s %-10s %-12s %-6s\n" "loss" "rounds" "latency" "link msgs" "k-set";
  List.iter
    (fun loss ->
      let sim = setup ~horizon:3000.0 ~crashes:2 ~seed:9600 () in
      let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst) () in
      let proposals = Array.init n (fun i -> 100 + i) in
      let h =
        if loss = 0.0 then Kset.install sim ~omega ~proposals ()
        else Kset.install sim ~omega ~proposals ~loss ()
      in
      let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
      let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h) in
      let link =
        Trace.counter (Sim.trace sim) "kset.l.link.sent"
        + Trace.counter (Sim.trace sim) "kset.dec.l.link.sent"
      in
      Printf.printf "%-8.1f  %-7d %-10.1f %-12s %-6s\n" loss (Kset.max_round h) o.end_time
        (if loss = 0.0 then string_of_int (Kset.messages_sent h) else string_of_int link)
        (ok_str v))
    [ 0.0; 0.1; 0.3; 0.5 ]

(* ------------------------------------------------------------------ *)
(* SCHED — engine scaling sweep: the arena/condition engine vs the     *)
(* legacy re-poll scheduler and the legacy closure-per-event queue on  *)
(* growing kset systems, n = 8 .. 1024.  All engines produce identical *)
(* executions (test/test_sched.ml pins the differentials); this        *)
(* experiment records what the hot-path overhaul buys and gates the    *)
(* allocation profile: bounded minor words per event on protocol runs, *)
(* zero promoted words per event on steady-state timer probes.         *)
(* ------------------------------------------------------------------ *)

(* Allocation gates (words per event).  Kset runs allocate envelopes,
   pidsets and round state — bounded, not zero; the bound trips if a
   regression reintroduces per-event closures or queue records.  The
   steady-state probe (pure ticker churn through the arena) must promote
   nothing at all once warmed up. *)
(* The protocol bound scales with n: one event's predicate wakeups and
   phase processing touch O(n)-sized quorum state (pidsets, tallies), so
   words-per-event grows roughly linearly (measured ~80 at n=128, ~10k at
   n=1024).  16n keeps honest headroom while still tripping on any
   per-event regression that is more than a small constant factor. *)
let sched_minor_words_bound nn = Float.max 1024.0 (16.0 *. float_of_int nn)
let sched_probe_minor_bound = 16.0

let sched () =
  section "SCHED  Engine scaling sweep: arena/cond vs legacy poll vs legacy queue";
  (* BENCH_SCHED_SMOKE: trimmed sweep for CI (small n, one seed); the
     steady-state GC probes run in both modes, so CI fails on an
     allocation regression, not just on a crash. *)
  let smoke = Sys.getenv_opt "BENCH_SCHED_SMOKE" <> None in
  let sizes = if smoke then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128; 256; 512; 1024 ] in
  (* The legacy engines exist as differential baselines; measuring them
     past n = 128 only burns time (the poll scheduler is quadratic in
     waiters), so the big sizes run the production engine alone. *)
  let mode_cap = 128 in
  let seeds_for nn = if smoke || nn > mode_cap then [ 1 ] else [ 1; 2; 3 ] in
  let modes_for nn =
    if nn <= mode_cap then
      [ ("cond", false, false); ("legacy_poll", true, false); ("legacy_queue", false, true) ]
    else [ ("cond", false, false) ]
  in
  (* Storm (pre-gst) rounds are pure churn at large n — n^2 messages per
     round that decide nothing.  Stabilize the oracle early for the big
     sizes so the n = 1024 job spends its wall clock on useful rounds. *)
  let gst_for nn = if nn > mode_cap then 10.0 else gst in
  let jobs =
    List.concat_map
      (fun nn ->
        let tb = (nn / 2) - 1 in
        List.concat_map
          (fun (mode, legacy_poll, legacy_queue) ->
            List.map
              (fun seed ->
                Runner.job ~exp:"sched" ~seed
                  ~label:(Printf.sprintf "n=%d mode=%s seed=%d" nn mode seed)
                  ~params:
                    [
                      ("n", Json.Int nn);
                      ("t", Json.Int tb);
                      ("mode", Json.String mode);
                    ]
                  ~replay:
                    (fdkit_replay "kset -n %d -t %d -z 2 -k 2 --crashes 2 --gst %g --seed %d%s%s"
                       nn tb (gst_for nn) seed
                       (if legacy_poll then " --legacy-poll" else "")
                       (if legacy_queue then " --legacy-queue" else ""))
                  (fun () ->
                    let sim =
                      Sim.create ~horizon:3000.0 ~max_events:200_000_000 ~legacy_poll
                        ~legacy_queue ~n:nn ~t:tb ~seed ()
                    in
                    let rng = Rng.split_named (Sim.rng sim) "crash" in
                    Sim.install_crashes sim
                      (Crash.generate
                         (Crash.Exactly { crashes = 2; window = (0.0, 20.0) })
                         ~n:nn ~t:tb rng);
                    let omega, _ =
                      Oracle.omega_z sim ~z:2 ~behavior:(Behavior.stormy ~gst:(gst_for nn)) ()
                    in
                    let proposals = Array.init nn (fun i -> 100 + i) in
                    let h = Kset.install sim ~omega ~proposals () in
                    let g0 = Gc.quick_stat () in
                    let t0 = Unix.gettimeofday () in
                    let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
                    let wall = Unix.gettimeofday () -. t0 in
                    let g1 = Gc.quick_stat () in
                    let ev = float_of_int (max o.events 1) in
                    let minor_pe = (g1.Gc.minor_words -. g0.Gc.minor_words) /. ev in
                    let promoted_pe = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. ev in
                    let v =
                      Check.k_set_agreement sim ~k:2 ~proposals
                        ~decisions:(Kset.decisions h)
                    in
                    if minor_pe > sched_minor_words_bound nn then
                      failwith
                        (Printf.sprintf "GC gate: %.0f minor words/event (bound %.0f)"
                           minor_pe (sched_minor_words_bound nn));
                    let pe = Sim.pred_evals sim in
                    Runner.body
                      ~notes:(if Check.verdict_ok v then [] else v.Check.notes)
                      ~metrics:
                        [
                          ("rounds", float_of_int (Kset.max_round h));
                          ("events", float_of_int o.events);
                          ("pred_evals", float_of_int pe);
                          ("signals", float_of_int (Sim.cond_signals sim));
                          ("wakeups", float_of_int (Sim.wakeups sim));
                          ("wall_s", wall);
                          ("events_per_s", float_of_int o.events /. Float.max wall 1e-9);
                          ("minor_words_per_event", minor_pe);
                          ("promoted_words_per_event", promoted_pe);
                        ]
                      ~row:
                        (Printf.sprintf
                           "%-5d %-12s %-5d  %-5s %-7d %-9d %-11d %-9.3f %-12.0f %-9.1f"
                           nn mode seed (ok_str v) (Kset.max_round h) o.events pe wall
                           (float_of_int o.events /. Float.max wall 1e-9)
                           minor_pe)
                      (Check.verdict_ok v)))
              (seeds_for nn))
          (modes_for nn))
      sizes
  in
  (* Steady-state probes: a warmed-up simulator running nothing but its
     self-re-arming ticker.  This is the allocation-free steady state the
     arena engine promises — after warmup the event loop must not promote
     a single word, and minor allocation per event must be (near) zero. *)
  let probe_sizes = if smoke then [ 32 ] else [ 128; 1024 ] in
  let probes =
    List.map
      (fun nn ->
        Runner.job ~exp:"sched" ~seed:1
          ~label:(Printf.sprintf "n=%d mode=probe seed=1" nn)
          ~params:
            [ ("n", Json.Int nn); ("t", Json.Int ((nn / 2) - 1)); ("mode", Json.String "probe") ]
          (fun () ->
            let horizon = 20_000.0 in
            let sim = Sim.create ~horizon ~n:nn ~t:((nn / 2) - 1) ~seed:1 () in
            Sim.ticker sim ~every:1.0;
            (* Warm up: size the arena, then settle the heap. *)
            let warm = ref 0 in
            let _ = Sim.run ~stop_when:(fun () -> incr warm; !warm >= 1000) sim in
            Gc.full_major ();
            let g0 = Gc.quick_stat () in
            let t0 = Unix.gettimeofday () in
            let o = Sim.run sim in
            let wall = Unix.gettimeofday () -. t0 in
            let g1 = Gc.quick_stat () in
            let ev = float_of_int (max o.events 1) in
            let minor_pe = (g1.Gc.minor_words -. g0.Gc.minor_words) /. ev in
            let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
            if promoted <> 0.0 then
              failwith
                (Printf.sprintf "GC gate: %.0f promoted words in steady state (must be 0)"
                   promoted);
            if minor_pe > sched_probe_minor_bound then
              failwith
                (Printf.sprintf "GC gate: %.2f minor words/event in steady state (bound %.0f)"
                   minor_pe sched_probe_minor_bound);
            Runner.body
              ~metrics:
                [
                  ("events", float_of_int o.events);
                  ("wall_s", wall);
                  ("events_per_s", float_of_int o.events /. Float.max wall 1e-9);
                  ("minor_words_per_event", minor_pe);
                  ("promoted_words", promoted);
                ]
              ~row:
                (Printf.sprintf
                   "%-5d %-12s %-5d  %-5s %-7s %-9d %-11s %-9.3f %-12.0f %-9.3f" nn
                   "probe" 1 "OK" "-" o.events "-" wall
                   (float_of_int o.events /. Float.max wall 1e-9)
                   minor_pe)
              true))
      probe_sizes
  in
  let c =
    campaign ~exp:"sched"
      ~header:
        (Printf.sprintf "%-5s %-12s %-5s  %-5s %-7s %-9s %-11s %-9s %-12s %-9s" "n" "mode"
           "seed" "ok" "rounds" "events" "pred_evals" "wall_s" "events/s" "minW/ev")
      (jobs @ probes)
  in
  (* Per-size comparison plus the gate summary merged into the artifact. *)
  let results = Array.to_list c.Runner.c_results in
  let mean mode nn name =
    let samples =
      List.filter_map
        (fun r ->
          if
            List.assoc_opt "n" r.Runner.r_params = Some (Json.Int nn)
            && List.assoc_opt "mode" r.Runner.r_params = Some (Json.String mode)
          then List.assoc_opt name r.Runner.r_metrics
          else None)
        results
    in
    match samples with
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  subsection "arena/cond engine vs legacy baselines (means across seeds)";
  Printf.printf "%-5s  %-18s  %-16s  %-16s\n" "n" "pred-evals ratio" "vs legacy_poll"
    "vs legacy_queue";
  List.iter
    (fun nn ->
      if nn <= mode_cap then
        Printf.printf "%-5d  %-18.1f  %-16.2f  %-16.2f\n" nn
          (mean "legacy_poll" nn "pred_evals" /. mean "cond" nn "pred_evals")
          (mean "legacy_poll" nn "wall_s" /. mean "cond" nn "wall_s")
          (mean "legacy_queue" nn "wall_s" /. mean "cond" nn "wall_s"))
    sizes;
  (* The recorded pre-overhaul baseline (ROADMAP item 2): the engine this
     PR replaced sustained ~118k events/s on the n = 128 cond
     configuration.  The artifact records today's throughput against it. *)
  let baseline_n128 = 118_000.0 in
  let n128 = mean "cond" 128 "events_per_s" in
  let gate_json =
    Json.Obj
      [
        ( "minor_words_bound",
          Json.Obj
            (List.map
               (fun nn ->
                 (string_of_int nn, Json.Float (sched_minor_words_bound nn)))
               sizes) );
        ("probe_minor_words_bound", Json.Float sched_probe_minor_bound);
        ("probe_promoted_words_required", Json.Float 0.0);
        ( "probes",
          Json.Obj
            (List.map
               (fun nn ->
                 ( string_of_int nn,
                   Json.Obj
                     [
                       ("events_per_s", Json.Float (mean "probe" nn "events_per_s"));
                       ( "minor_words_per_event",
                         Json.Float (mean "probe" nn "minor_words_per_event") );
                       ("promoted_words", Json.Float (mean "probe" nn "promoted_words"));
                     ] ))
               probe_sizes) );
        ( "throughput",
          Json.Obj
            (List.map
               (fun nn ->
                 ( string_of_int nn,
                   Json.Obj
                     [
                       ("events_per_s_cond", Json.Float (mean "cond" nn "events_per_s"));
                       ( "minor_words_per_event_cond",
                         Json.Float (mean "cond" nn "minor_words_per_event") );
                     ] ))
               sizes) );
        ("baseline_n128_events_per_s", Json.Float baseline_n128);
        ( "speedup_vs_recorded_baseline_n128",
          if Float.is_nan n128 then Json.Null else Json.Float (n128 /. baseline_n128) );
      ]
  in
  (match Runner.campaign_json c with
  | Json.Obj fields ->
      Json.write_file
        (Filename.concat "_results" "BENCH_sched.json")
        (Json.Obj (fields @ [ ("gate", gate_json) ]))
  | _ -> ());
  if not (Float.is_nan n128) then
    Printf.printf "n=128 cond: %.0f events/s = %.1fx the recorded pre-overhaul baseline (%.0f)\n"
      n128 (n128 /. baseline_n128) baseline_n128

(* ------------------------------------------------------------------ *)
(* OBS — tracing overhead: the observability layer must be close to    *)
(* free at its default level.  kset sweep at trace off/default/full;   *)
(* the artifact additionally records per-(n, level) wall means and the *)
(* overhead percentage vs off (acceptance: default < 5% at n = 64).    *)
(* ------------------------------------------------------------------ *)

let obs () =
  section "OBS  Tracing overhead: kset at trace level off / default / full";
  (* BENCH_OBS_SMOKE: trimmed sweep for CI (small n, one seed, one rep). *)
  let smoke = Sys.getenv_opt "BENCH_OBS_SMOKE" <> None in
  (* Smoke keeps n = 64: the 5%-overhead budget is an n = 64 acceptance
     number (at toy sizes the fixed cost of tracing dominates the tiny
     wall), and the hard gate below must test the real criterion even
     in CI. *)
  let sizes = if smoke then [ 8; 16; 64 ] else [ 8; 16; 32; 64 ] in
  let seeds = if smoke then [ 1 ] else [ 1; 2; 3 ] in
  (* Multiple reps even in smoke: the overhead gate below uses
     min-of-reps, so a lone noisy rep must not be able to fail CI.  The
     full run takes 5 because the < 5% gate sits close to one loaded
     container's scheduler jitter at 3. *)
  let reps = if smoke then 3 else 5 in
  let levels = [ "off"; "default"; "full" ] in
  let pk = Option.get (Protocol.find "kset") in
  let mk_params nn level seed =
    {
      Protocol.default with
      Protocol.n = nn;
      t = (nn / 2) - 1;
      z = 2;
      k = 2;
      seed;
      horizon = 3000.0;
      crashes = Crash.Exactly { crashes = 2; window = (0.0, 20.0) };
      trace = level;
    }
  in
  let jobs =
    List.concat_map
      (fun nn ->
        List.concat_map
          (fun level ->
            List.map
              (fun seed ->
                Runner.job ~exp:"obs" ~seed
                  ~label:(Printf.sprintf "n=%d trace=%s seed=%d" nn level seed)
                  ~params:
                    [
                      ("n", Json.Int nn);
                      ("level", Json.String level);
                    ]
                  ~replay:
                    (fdkit_replay "kset -n %d -t %d -z 2 -k 2 --crashes 2 --seed %d --trace %s"
                       nn ((nn / 2) - 1) seed level)
                  (fun () ->
                    let p = mk_params nn level seed in
                    (* min-of-reps wall: same params → same execution, so
                       repeats only shave scheduler noise off the timing. *)
                    let best = ref infinity and last = ref None in
                    for _ = 1 to reps do
                      let t0 = Unix.gettimeofday () in
                      let r = Protocol.run pk p in
                      let wall = Unix.gettimeofday () -. t0 in
                      if wall < !best then best := wall;
                      last := Some r
                    done;
                    let r = Option.get !last in
                    let tr = Sim.trace r.Protocol.rp_sim in
                    let obs_metrics =
                      List.filter
                        (fun (name, _) -> String.starts_with ~prefix:"obs." name)
                        r.Protocol.rp_metrics
                    in
                    let get name =
                      Option.value ~default:0.0
                        (List.assoc_opt name r.Protocol.rp_metrics)
                    in
                    let ok = Check.verdict_ok r.Protocol.rp_verdict in
                    Runner.body
                      ~notes:(if ok then [] else r.Protocol.rp_verdict.Check.notes)
                      ~metrics:
                        ([
                           ("wall_s", !best);
                           ("entries", float_of_int (Trace.length tr));
                           ("rounds", get "rounds");
                         ]
                        @ obs_metrics)
                      ~row:
                        (Printf.sprintf "%-5d %-8s %-5d  %-5s %-7.0f %-9d %-9.3f" nn level
                           seed
                           (if ok then "OK" else "FAIL")
                           (get "rounds") (Trace.length tr) !best)
                      ok))
              seeds)
          levels)
      sizes
  in
  let c =
    campaign ~exp:"obs"
      ~header:
        (Printf.sprintf "%-5s %-8s %-5s  %-5s %-7s %-9s %-9s" "n" "trace" "seed" "ok"
           "rounds" "entries" "wall_s")
      jobs
  in
  (* Per-(n, level) means of the per-seed min walls, and the overhead of
     each tracing level over off. *)
  let results = Array.to_list c.Runner.c_results in
  let mean nn level name =
    let samples =
      List.filter_map
        (fun r ->
          if
            List.assoc_opt "n" r.Runner.r_params = Some (Json.Int nn)
            && List.assoc_opt "level" r.Runner.r_params = Some (Json.String level)
          then List.assoc_opt name r.Runner.r_metrics
          else None)
        results
    in
    match samples with
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let walls nn level =
    List.filter_map
      (fun r ->
        if
          List.assoc_opt "n" r.Runner.r_params = Some (Json.Int nn)
          && List.assoc_opt "level" r.Runner.r_params = Some (Json.String level)
        then List.assoc_opt "wall_s" r.Runner.r_metrics
        else None)
      results
  in
  let overhead_pct nn level =
    (* Ratios are paired per seed — the same seed is the same execution
       at every level, and the deterministic job order lists seeds
       identically for each level — then the median across seeds is
       taken, so one scheduler-noise-inflated seed cannot move the
       acceptance number the way a ratio of means lets it. *)
    let ratios =
      List.map2
        (fun lv off -> ((lv /. off) -. 1.0) *. 100.0)
        (walls nn level) (walls nn "off")
    in
    match List.sort compare ratios with
    | [] -> nan
    | l -> List.nth l (List.length l / 2)
  in
  subsection "tracing overhead vs off (median of per-seed min-wall ratios)";
  Printf.printf "%-5s %-12s %-14s %-12s %-14s\n" "n" "off wall_s" "default vs off"
    "full wall_s" "full vs off";
  let pct v = Printf.sprintf "%+.1f%%" v in
  List.iter
    (fun nn ->
      Printf.printf "%-5d %-12.4f %-14s %-12.4f %-14s\n" nn (mean nn "off" "wall_s")
        (pct (overhead_pct nn "default"))
        (mean nn "full" "wall_s")
        (pct (overhead_pct nn "full")))
    sizes;
  (* Merge the overhead table into the artifact the campaign already
     wrote, so _results/BENCH_obs.json carries the acceptance numbers. *)
  let overhead_json =
    Json.Obj
      (List.map
         (fun nn ->
           ( Printf.sprintf "n%d" nn,
             Json.Obj
               (List.map
                  (fun level ->
                    ( level,
                      Json.Obj
                        ([ ("wall_s_mean", Json.Float (mean nn level "wall_s")) ]
                        @
                        if level = "off" then []
                        else [ ("overhead_pct_vs_off", Json.Float (overhead_pct nn level)) ])
                    ))
                  levels) ))
         sizes)
  in
  (* Live-stream export check: replay a real trace entry-by-entry into
     a fresh trace, flushing the streaming JSONL exporter at arbitrary
     points; the concatenated frames must be byte-identical to the
     post-hoc export of the final trace.  (The qcheck in test_obs.ml
     covers random interleavings; this pins the property on a
     protocol-sized trace and gates the bench on it.) *)
  subsection "streamed JSONL vs post-hoc export";
  let stream_identical =
    let p = mk_params (List.hd sizes) "full" 1 in
    let r = Protocol.run pk p in
    let src = Sim.trace r.Protocol.rp_sim in
    let tr = Trace.create ~level:(Trace.level src) () in
    let stream = Export.Stream.create tr in
    let frames = Buffer.create 4096 in
    let i = ref 0 in
    Trace.iter
      (fun { Trace.time; entry } ->
        Trace.record tr ~time entry;
        incr i;
        if !i mod 97 = 0 then Buffer.add_string frames (Export.Stream.flush stream))
      src;
    List.iter (fun (name, v) -> Trace.add_to tr name v) (Trace.counters src);
    Buffer.add_string frames (Export.Stream.close stream);
    Buffer.contents frames = Export.to_jsonl tr
  in
  Printf.printf "concatenated stream == post-hoc export: %s\n"
    (if stream_identical then "yes" else "NO");
  (* The acceptance measurement: default vs off at the largest size, as
     paired back-to-back runs in alternating order.  The campaign table
     above times each level in its own job, seconds apart — on a loaded
     host a sustained slow window then lands entirely on one level and
     fabricates (or hides) tens of percent.  Pairing cancels
     slow-varying load inside each ratio, alternation cancels order
     bias, and the gate reads the smallest ratio: a {e real} regression
     inflates every pair, while load noise only inflates the pairs it
     happens to land on, so the floor of the distribution is the
     intrinsic cost. *)
  let nmax = List.fold_left max 0 sizes in
  let d =
    let time level =
      let t0 = Unix.gettimeofday () in
      ignore (Protocol.run pk (mk_params nmax level 1));
      Unix.gettimeofday () -. t0
    in
    ignore (time "off");
    (* warm-up *)
    let pairs = 7 in
    let ratios =
      List.init pairs (fun i ->
          let off, dflt =
            if i mod 2 = 0 then
              let off = time "off" in
              (off, time "default")
            else
              let dflt = time "default" in
              (time "off", dflt)
          in
          ((dflt /. off) -. 1.0) *. 100.0)
    in
    List.fold_left Float.min infinity ratios
  in
  Printf.printf "default-level overhead at n=%d: %+.1f%% (budget: < 5%%)\n" nmax d;
  (match Runner.campaign_json c with
  | Json.Obj fields ->
      Json.write_file
        (Filename.concat "_results" "BENCH_obs.json")
        (Json.Obj
           (fields
           @ [
               ("overhead", overhead_json);
               ("stream_byte_identical", Json.Bool stream_identical);
               ("default_overhead_pct_paired", Json.Float d);
               ("gate_default_overhead_pct", Json.Float 5.0);
             ]))
  | _ -> ());
  (* Hard gates (nonzero bench exit): the telemetry plane rides on the
     default trace level, so its cost cap is part of the observability
     acceptance, as is the stream/post-hoc byte identity. *)
  if not stream_identical then
    failwith "OBS: concatenated streamed JSONL differs from post-hoc export";
  if Float.is_nan d || d >= 5.0 then
    failwith
      (Printf.sprintf "OBS: default-level tracing overhead %+.1f%% >= 5%% at n=%d"
         d nmax)

(* ------------------------------------------------------------------ *)
(* EXPLORE — adversarial schedule exploration as a benchmark: search   *)
(* throughput on the E2 misuse configuration (Omega_z with z > k must  *)
(* yield a minimized counterexample) and on the safe z <= k            *)
(* configuration (Lemma 2: no schedule violates, the explorer must     *)
(* come up dry).                                                       *)
(* ------------------------------------------------------------------ *)

let explore () =
  section "EXPLORE  Schedule explorer: misuse finds + minimizes, safe comes up dry";
  let bounds =
    {
      Explorer.default_bounds with
      Explorer.depth = 12;
      delays = 1;
      walks = 20;
      max_runs_per_job = 200;
    }
  in
  let params z =
    {
      Protocol.default with
      Protocol.n = 7;
      t = 2;
      seed = 1;
      z;
      k = 1;
      adversarial = true;
      horizon = 300.0;
      crashes = Crash.No_crashes;
    }
  in
  let stat c name =
    Array.to_list c.Runner.c_results
    |> List.filter_map (fun r -> List.assoc_opt ("explore." ^ name) r.Runner.r_metrics)
    |> List.fold_left ( +. ) 0.0
  in
  Printf.printf "%-22s %-8s %-8s %-8s %-8s %-8s %-8s %-6s\n" "config" "runs" "points"
    "prunes" "viols" "shrinks" "viol/s" "ces";
  let cell ?(artifact = false) name z =
    let o = Explorer.explore ~protocol:"kset" (params z) bounds in
    let c = o.Explorer.o_campaign in
    Printf.printf "%-22s %-8.0f %-8.0f %-8.0f %-8.0f %-8.0f %-8.1f %-6d\n" name
      (stat c "runs") (stat c "points") (stat c "prunes") (stat c "violations")
      (stat c "shrink_runs")
      (stat c "violations" /. Float.max c.Runner.c_wall_s 1e-9)
      (List.length o.Explorer.o_ces);
    if artifact then
      Printf.printf "  -> %s\n" (Runner.write_artifact c);
    o.Explorer.o_ces
  in
  let misuse = cell ~artifact:true "misuse z=2 > k=1" 2 in
  let safe = cell "safe   z=1 <= k=1" 1 in
  if misuse = [] then failwith "EXPLORE: misuse config (z > k) found no counterexample";
  if safe <> [] then failwith "EXPLORE: safe config (z <= k) found a spurious violation";
  Printf.printf
    "misuse: %d minimized counterexample(s) (shortest: %d choice(s)); safe: none — as \
     Lemma 2 demands\n"
    (List.length misuse)
    (List.fold_left
       (fun acc (s : Schedule.t) -> min acc (List.length s.Schedule.choices))
       max_int misuse)

(* ------------------------------------------------------------------ *)
(* CHAOS — the fault-injection campaign as a benchmark: every fault    *)
(* mix x seed x protocol run must preserve safety (0 violations, the   *)
(* hard acceptance bar) and decide once its faults heal; the artifact  *)
(* records the decision-latency inflation each mix causes vs the       *)
(* fault-free control, and the deliberately illegal specs must be      *)
(* caught by Faults.legal and minimized to replayable counterexamples. *)
(* ------------------------------------------------------------------ *)

let chaos () =
  section "CHAOS  Fault injection: safety under every mix, liveness after heal";
  (* BENCH_CHAOS_SMOKE: one seed per (protocol, mix) cell for CI. *)
  let smoke = Sys.getenv_opt "BENCH_CHAOS_SMOKE" <> None in
  let seeds = if smoke then 1 else 8 in
  let o = Chaos.run ~seeds () in
  let c = o.Chaos.o_campaign in
  Printf.printf
    "[chaos] %d runs (%d protocols x %d mixes x %d seeds) on %d domain(s), %.2fs wall\n"
    o.Chaos.o_runs
    (List.length Chaos.default_protocols)
    (List.length Chaos.mixes)
    seeds c.Runner.c_workers c.Runner.c_wall_s;
  Printf.printf "safety violations: %d (budget: 0)\nliveness failures: %d (budget: 0)\n"
    o.Chaos.o_safety o.Chaos.o_liveness;
  List.iter
    (fun (f : Chaos.failure) ->
      Printf.printf "  FAIL %s/%s seed=%d %s: %s\n" f.Chaos.f_protocol f.Chaos.f_mix
        f.Chaos.f_params.Protocol.seed
        (Chaos.kind_to_string f.Chaos.f_kind)
        (String.concat "; " f.Chaos.f_notes))
    o.Chaos.o_failures;
  (* Decision-latency inflation per mix, against the fault-free control
     of the same protocol: the price of graceful degradation. *)
  let results = Array.to_list c.Runner.c_results in
  let cut r =
    match String.split_on_char '/' r.Runner.r_label with
    | proto :: mix :: _ -> (proto, mix)
    | _ -> ("?", "?")
  in
  let mean_latency proto mix =
    let samples =
      List.filter_map
        (fun r ->
          if r.Runner.r_ok && cut r = (proto, mix) then
            List.assoc_opt "latency" r.Runner.r_metrics
          else None)
        results
    in
    match samples with
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  subsection "decision-latency inflation vs the fault-free mix (mean over ok runs)";
  Printf.printf "%-12s" "mix";
  List.iter (fun p -> Printf.printf " %-22s" p) Chaos.default_protocols;
  print_newline ();
  let inflation proto mix = mean_latency proto mix /. mean_latency proto "none" in
  List.iter
    (fun mix ->
      Printf.printf "%-12s" mix;
      List.iter
        (fun proto ->
          Printf.printf " %-22s"
            (Printf.sprintf "%7.1f (x%.2f)" (mean_latency proto mix)
               (inflation proto mix)))
        Chaos.default_protocols;
      print_newline ())
    Chaos.mix_names;
  (* Illegal-spec probes: never run, caught by Faults.legal, minimized
     by ddmin to the offending atoms, recorded as replayable records. *)
  subsection "illegal-spec probes (caught, minimized, replayable)";
  let n = Protocol.default.Protocol.n and t = Protocol.default.Protocol.t in
  let probe name spec =
    match Chaos.minimize_illegal ~n ~t spec with
    | None -> failwith (Printf.sprintf "CHAOS: illegal probe %S was not caught" name)
    | Some s ->
        let errs = match Faults.legal ~n ~t s with Error e -> e | Ok () -> [] in
        Printf.printf "  %-14s caught (%d atoms -> %d): %s\n" name
          (List.length (Faults.elements spec))
          (List.length (Faults.elements s))
          (String.concat "; " errs);
        {
          Chaos.f_protocol = "kset";
          f_mix = name;
          f_kind = Chaos.Illegal;
          f_notes = errs;
          f_params = { Protocol.default with Protocol.faults = s };
        }
  in
  let over_budget =
    {
      Faults.none with
      Faults.crashes =
        Crash.Explicit (List.init (t + 1) (fun i -> (i, 5.0 +. float_of_int i)));
      stalls = [ Faults.stall ~pid:0 ~from:1.0 ~until:2.0 ];
    }
  in
  let never_omega =
    {
      Faults.none with
      Faults.adversary = "never";
      links = [ Faults.link ~drop:0.5 ~from:0.0 ~until:10.0 () ];
    }
  in
  let p1 = probe "t+1-crashes" over_budget in
  let p2 = probe "never-omega" never_omega in
  let probes = [ p1; p2 ] in
  let fpath = Chaos.write_failures (o.Chaos.o_failures @ probes) in
  Printf.printf "chaos failures artifact: %s (%d record(s), %d probe(s))\n" fpath
    (List.length o.Chaos.o_failures + List.length probes)
    (List.length probes);
  (* The campaign artifact, with the inflation table merged in. *)
  let inflation_json =
    Json.Obj
      (List.map
         (fun proto ->
           ( proto,
             Json.Obj
               (List.map
                  (fun mix ->
                    ( mix,
                      Json.Obj
                        ([ ("latency_mean", Json.Float (mean_latency proto mix)) ]
                        @
                        if mix = "none" then []
                        else [ ("inflation_vs_none", Json.Float (inflation proto mix)) ])
                    ))
                  Chaos.mix_names) ))
         Chaos.default_protocols)
  in
  (match Runner.campaign_json c with
  | Json.Obj fields ->
      Json.write_file
        (Filename.concat "_results" "BENCH_chaos.json")
        (Json.Obj (fields @ [ ("latency_inflation", inflation_json) ]))
  | _ -> ());
  if o.Chaos.o_safety > 0 then
    failwith
      (Printf.sprintf "CHAOS: %d safety violation(s) under fault injection"
         o.Chaos.o_safety);
  if o.Chaos.o_liveness > 0 then
    failwith
      (Printf.sprintf "CHAOS: %d healed run(s) failed to decide" o.Chaos.o_liveness)

(* ------------------------------------------------------------------ *)
(* SERVE — the content-addressed result cache under the unified job    *)
(* API (DESIGN.md §11): a cold fill of the full chaos campaign, a warm *)
(* replay that must execute nothing and reproduce the summary          *)
(* byte-for-byte, and a one-protocol fingerprint bump that must        *)
(* invalidate exactly that protocol's entries.                         *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let serve () =
  section "SERVE  Result cache: warm replay is free, invalidation is per-protocol";
  (* BENCH_SERVE_SMOKE: one seed per (protocol, mix) cell for CI. *)
  let smoke = Sys.getenv_opt "BENCH_SERVE_SMOKE" <> None in
  let seeds = if smoke then 1 else 8 in
  let spec = Job.of_flags ~kind:`Chaos ~seeds ~protocol:"" Protocol.default in
  let protocols, mixes =
    match spec with
    | Job.Chaos { protocols; mixes; _ } -> (protocols, mixes)
    | _ -> assert false
  in
  let total = List.length protocols * List.length mixes * seeds in
  let dir = Filename.concat "_results" "bench_cache" in
  rm_rf dir;
  let pass ?fingerprint tag =
    (* One Cache.t per pass so hit/miss counters are per-pass. *)
    let cache = Runner.Cache.create ~dir () in
    let o = Job.execute ~cache ?fingerprint spec in
    let c = o.Job.o_campaign in
    Printf.printf "  %-24s %4d jobs: %4d cached, %4d executed, %6.2fs wall\n" tag
      (Array.length c.Runner.c_results)
      c.Runner.c_cache_hits c.Runner.c_executed c.Runner.c_wall_s;
    (c, Digest.to_hex (Digest.string (Runner.signature c)))
  in
  let gate name cond =
    if not cond then failwith (Printf.sprintf "SERVE: %s" name)
  in
  let c_cold, sig_cold = pass "cold fill" in
  gate "cold pass resolved jobs from an empty cache"
    (c_cold.Runner.c_cache_hits = 0 && c_cold.Runner.c_executed = total);
  let c_warm, sig_warm = pass "warm replay" in
  gate "warm replay executed jobs" (c_warm.Runner.c_executed = 0);
  gate "warm replay missed the cache" (c_warm.Runner.c_cache_hits = total);
  gate "warm summary is not byte-identical to cold" (sig_warm = sig_cold);
  (* A one-line change to the kset protocol changes only kset's code
     fingerprint; every kset entry must miss and every other entry must
     still hit. *)
  let bumped name =
    let fp = Fingerprint.protocol name in
    if name = "kset" then Digest.to_hex (Digest.string (fp ^ "+one-line-patch"))
    else fp
  in
  let kset_share = List.length mixes * seeds in
  let c_bump, sig_bump = pass ~fingerprint:bumped "kset fingerprint bump" in
  Printf.printf
    "  invalidation: %d/%d entries re-executed (kset's share), %d still hit\n"
    c_bump.Runner.c_executed total c_bump.Runner.c_cache_hits;
  gate
    (Printf.sprintf "fingerprint bump re-executed %d jobs, expected exactly %d"
       c_bump.Runner.c_executed kset_share)
    (c_bump.Runner.c_executed = kset_share);
  gate "fingerprint bump missed non-kset entries"
    (c_bump.Runner.c_cache_hits = total - kset_share);
  gate "re-executed jobs changed the summary" (sig_bump = sig_cold);
  (* Telemetry plane: a subscribed campaign must deliver snapshots and
     stay observationally inert — the signature with a telemetry
     consumer attached is byte-identical to the plain run's.  A small
     uncached kset campaign keeps this pass cheap. *)
  subsection "live telemetry (snapshots attached vs not)";
  let tele_spec =
    Job.of_flags ~kind:`Campaign ~seeds:(if smoke then 8 else 16)
      ~protocol:"kset" Protocol.default
  in
  let frames = ref [] in
  let t0 = Unix.gettimeofday () in
  let c_tele =
    (Job.execute ~on_telemetry:(fun te -> frames := te :: !frames) tele_spec)
      .Job.o_campaign
  in
  let wall_tele = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let c_plain = (Job.execute tele_spec).Job.o_campaign in
  let wall_plain = Unix.gettimeofday () -. t0 in
  let n_frames = List.length !frames in
  let sig_tele = Digest.to_hex (Digest.string (Runner.signature c_tele)) in
  let sig_plain = Digest.to_hex (Digest.string (Runner.signature c_plain)) in
  let tele_overhead_pct = ((wall_tele /. wall_plain) -. 1.0) *. 100.0 in
  Printf.printf
    "  %d telemetry frame(s), overhead %+.1f%%, signature %s\n" n_frames
    tele_overhead_pct
    (if sig_tele = sig_plain then "identical" else "DIFFERS");
  gate "telemetried campaign emitted no snapshot" (n_frames >= 1);
  gate "telemetry perturbed the campaign signature" (sig_tele = sig_plain);
  (List.iter
     (fun (te : Runner.telemetry) ->
       gate "telemetry snapshot done exceeds total"
         (te.Runner.te_done <= te.Runner.te_total))
     !frames);
  let last = List.hd !frames in
  gate "final telemetry snapshot is not complete"
    (last.Runner.te_done = last.Runner.te_total);
  (* Crash recovery: fill the cache to ~50%, fabricate the journal a
     kill -9 leaves behind (accepted + running, no terminal entry), and
     restart a real daemon on it.  The resumed campaign must re-execute
     only the missing tail — zero duplicate executions — and land on the
     cold pass's signature byte-for-byte.  (The CI smoke kills a live
     daemon with SIGKILL; this pass measures the same recovery path
     in-process, where executed/hit counts are observable.) *)
  subsection "crash recovery (kill at ~50%, restart, resume)";
  let rdir = Filename.concat "_results" "bench_recovery" in
  rm_rf rdir;
  let rcache_dir = Filename.concat rdir "cache" in
  let half = total / 2 in
  let completed = ref 0 in
  let cache1 = Runner.Cache.create ~dir:rcache_dir () in
  let c_interrupted =
    (Job.execute ~cache:cache1
       ~on_progress:(fun _ -> incr completed)
       ~stop:(fun () -> !completed >= half)
       spec)
      .Job.o_campaign
  in
  let executed1 = c_interrupted.Runner.c_executed in
  Printf.printf "  interrupted at %d/%d jobs (%d executed, %d stored)\n"
    !completed total executed1 (Runner.Cache.stores cache1);
  gate "interrupted pass ran to completion (cannot exercise recovery)"
    (executed1 < total);
  let socket = Filename.concat rdir "fdkit.sock" in
  let j = Journal.append_open (Serve.journal_path rdir) in
  Journal.append j (Serve.Recovery.accepted_entry ~id:1 spec);
  Journal.append j (Serve.Recovery.state_entry ~id:1 "running");
  Journal.close j;
  let t0 = Unix.gettimeofday () in
  let daemon =
    Domain.spawn (fun () ->
        Serve.serve
          ~config:
            {
              Serve.default_config with
              Serve.socket_path = socket;
              cache_dir = Some rcache_dir;
              out_dir = rdir;
              log = ignore;
            }
          ())
  in
  let conn =
    match Serve.Client.connect_retry ~attempts:10 ~backoff_s:0.05 socket with
    | Ok c -> c
    | Error e -> failwith ("SERVE: recovery daemon unreachable: " ^ e)
  in
  let rec wait_done n =
    if n = 0 then failwith "SERVE: resumed job never finished";
    let record =
      match Serve.Client.status conn with
      | Ok v -> (
          match Json.member "jobs" v with
          | Some (Json.List [ r ])
            when Json.member "state" r = Some (Json.String "done") ->
              Some r
          | _ -> None)
      | Error _ -> None
    in
    match record with
    | Some r -> r
    | None ->
        Unix.sleepf 0.05;
        wait_done (n - 1)
  in
  let r = wait_done 2400 in
  let recovery_wall_s = Unix.gettimeofday () -. t0 in
  ignore (Serve.Client.shutdown conn);
  Serve.Client.close conn;
  Domain.join daemon;
  let int_of k = match Json.member k r with Some (Json.Int i) -> i | _ -> -1 in
  let hits2 = int_of "cache_hits" and executed2 = int_of "executed" in
  let sig_resumed =
    match Json.member "signature" r with Some (Json.String s) -> s | _ -> "?"
  in
  let duplicates = max 0 (executed1 + executed2 - total) in
  Printf.printf
    "  resumed: %d cached + %d executed in %.2fs, %d duplicate execution(s), signature %s\n"
    hits2 executed2 recovery_wall_s duplicates
    (if sig_resumed = sig_cold then "identical" else "DIFFERS");
  gate "recovery re-executed already-completed jobs" (duplicates = 0);
  gate "recovery left jobs unaccounted" (hits2 + executed2 = total);
  gate "resumed signature differs from the cold signature"
    (sig_resumed = sig_cold);
  let side tag (c : Runner.campaign) sg =
    ( tag,
      Json.Obj
        [
          ("jobs", Json.Int (Array.length c.Runner.c_results));
          ("cache_hits", Json.Int c.Runner.c_cache_hits);
          ("executed", Json.Int c.Runner.c_executed);
          ("wall_s", Json.Float c.Runner.c_wall_s);
          ("signature", Json.String sg);
        ] )
  in
  Json.write_file
    (Filename.concat "_results" "BENCH_serve.json")
    (Json.Obj
       (Stamp.fields ()
       @ [
           ("experiment", Json.String "serve");
           ("smoke", Json.Bool smoke);
           ("seeds", Json.Int seeds);
           ("protocols", Json.List (List.map (fun p -> Json.String p) protocols));
           ("mixes", Json.Int (List.length mixes));
           ("cache_dir", Json.String dir);
           side "cold" c_cold sig_cold;
           side "warm" c_warm sig_warm;
           side "fingerprint_bump" c_bump sig_bump;
           ("warm_byte_identical", Json.Bool (sig_warm = sig_cold));
           ("bump_invalidated_exactly", Json.Int c_bump.Runner.c_executed);
           ( "telemetry",
             Json.Obj
               [
                 ("frames", Json.Int n_frames);
                 ("overhead_pct", Json.Float tele_overhead_pct);
                 ("signature_identical", Json.Bool (sig_tele = sig_plain));
                 ("cache_skipped_cold", Json.Int c_cold.Runner.c_cache_skipped);
               ] );
           ( "recovery",
             Json.Obj
               [
                 ("interrupted_executed", Json.Int executed1);
                 ("resumed_cache_hits", Json.Int hits2);
                 ("resumed_executed", Json.Int executed2);
                 ("duplicate_executions", Json.Int duplicates);
                 ("recovery_wall_s", Json.Float recovery_wall_s);
                 ("signature_identical", Json.Bool (sig_resumed = sig_cold));
               ] );
         ]));
  Printf.printf "artifact: %s\n" (Filename.concat "_results" "BENCH_serve.json")

(* ------------------------------------------------------------------ *)
(* RT — the real-runtime backend (lib/rt): accrual-detector QoS vs     *)
(* heartbeat period on real domains over loopback, and the sim-vs-rt   *)
(* decision-latency comparison for the kset protocol.  Jobs spawn      *)
(* their own domains, so the campaign runs them on one worker.         *)
(* ------------------------------------------------------------------ *)

let rt () =
  section "RT  Real-runtime backend: accrual QoS vs heartbeat period, sim-vs-rt latency";
  (* BENCH_RT_SMOKE: trimmed sweep for CI (fewer periods, n = 4 only,
     in-process channel transport — no sockets on the CI runner). *)
  let smoke = Sys.getenv_opt "BENCH_RT_SMOKE" <> None in
  let transport = if smoke then `Chan else `Udp in
  let module R = Setagree_rt.Run in
  let module Q = Setagree_rt.Qos in
  let hb_periods = if smoke then [ 0.02; 0.05 ] else [ 0.01; 0.02; 0.05; 0.1 ] in
  let probe_n = if smoke then 4 else 6 in
  let probe_jobs =
    List.mapi
      (fun i hb ->
        Runner.job ~exp:"rt"
          ~seed:(9900 + i)
          ~label:(Printf.sprintf "fd_probe hb=%gms" (hb *. 1000.0))
          ~params:
            [
              ("kind", Json.String "fd_probe");
              ("hb_ms", Json.Float (hb *. 1000.0));
              ("n", Json.Int probe_n);
            ]
          (fun () ->
            let cfg =
              {
                R.default_cfg with
                R.transport;
                hb_period_s = hb;
                (* warmup + crash + detection must fit the horizon even
                   at the slowest heartbeat period *)
                horizon_s = Float.max 2.0 (40.0 *. hb);
                crash_at_s = Float.max 0.3 (10.0 *. hb);
              }
            in
            let report, metrics = R.fd_probe ~n:probe_n ~crashes:1 ~seed:(9900 + i) ~cfg () in
            let detect = Option.value ~default:nan report.Q.detection_time_s in
            let mdur = Option.value ~default:0.0 report.Q.mistake_duration_s in
            Runner.body
              ~notes:
                (if report.Q.undetected = 0 then []
                 else [ Printf.sprintf "%d undetected crash pair(s)" report.Q.undetected ])
              ~metrics:(metrics @ [ ("hb_ms", hb *. 1000.0) ])
              ~row:
                (Printf.sprintf "%-8.0f %-10.4f %-6d  %-10.4f %-10.4f %-9.3f %-8d" (hb *. 1000.0)
                   detect report.Q.undetected report.Q.mistake_rate_hz mdur
                   report.Q.query_accuracy report.Q.samples)
              (report.Q.undetected = 0)))
      hb_periods
  in
  (* sim-vs-rt: the same kset configuration on both substrates.  The
     simulator's virtual decision latency is mapped to wall seconds
     through the runtime's timescale, so the two columns share units. *)
  let sizes = if smoke then [ 4 ] else [ 4; 8; 16 ] in
  let pk = Option.get (Protocol.find "kset") in
  let latency_jobs =
    List.map
      (fun nn ->
        let tt = max 1 (nn / 4) in
        let seed = 9950 + nn in
        Runner.job ~exp:"rt" ~seed
          ~label:(Printf.sprintf "kset sim-vs-rt n=%d" nn)
          ~params:[ ("kind", Json.String "kset_latency"); ("n", Json.Int nn) ]
          ~replay:
            (fdkit_replay "kset --backend rt -n %d -t %d -z 1 -k 1 --crashes 1 --seed %d" nn
               tt seed)
          (fun () ->
            let p =
              {
                Protocol.default with
                Protocol.n = nn;
                t = tt;
                seed;
                z = 1;
                k = 1;
                gst = 0.0;
                horizon = 3000.0;
                crashes = Crash.Exactly { crashes = 1; window = (0.0, 20.0) };
              }
            in
            let sim_r = Protocol.run pk p in
            let sim_ok = Check.verdict_ok sim_r.Protocol.rp_verdict in
            let sim_latency_vt =
              Option.value ~default:sim_r.Protocol.rp_outcome.Sim.end_time
                (List.assoc_opt "latency" sim_r.Protocol.rp_metrics)
            in
            (* Bigger systems contend for cores: slow the heartbeat and
               raise the accrual threshold (suspect only beyond every
               observed gap) so scheduler hiccups don't flap the leader. *)
            let cfg =
              {
                R.default_cfg with
                R.transport;
                hb_period_s = (if nn >= 16 then 0.04 else 0.02);
                accrual_threshold = 3.0;
                detect_slack_s = 1.2;
              }
            in
            let sim_latency_s = sim_latency_vt /. cfg.R.timescale in
            let rt_r = R.run_protocol pk { p with Protocol.backend = "rt" } ~cfg () in
            let rt_latency_s =
              List.fold_left (fun acc (_, _, _, tm) -> Float.max acc tm) 0.0
                rt_r.R.o_decisions
            in
            (* The cell under test is decision latency with safety held
               on both substrates.  Ω-stability of the extracted detector
               is reported but not gated here: with more domains than
               cores every node is CPU-starved and real heartbeat gaps
               flap the leader — fd_probe and the CI smoke certify the
               detector at sane occupancy. *)
            let ok = sim_ok && rt_r.R.o_safety.Check.ok in
            Runner.body
              ~notes:
                ((if ok then []
                  else
                    sim_r.Protocol.rp_verdict.Check.notes @ rt_r.R.o_safety.Check.notes)
                @ (if rt_r.R.o_fd.Check.ok then [] else rt_r.R.o_fd.Check.notes))
              ~metrics:
                ([
                   ("sim_latency_s", sim_latency_s);
                   ("rt_latency_s", rt_latency_s);
                   ("rt_wall_s", rt_r.R.o_wall_s);
                 ]
                @ rt_r.R.o_metrics)
              ~row:
                (Printf.sprintf "%-5d %-5d  %-14.4f %-14.4f %-8.2f %-6s %-8s" nn tt
                   sim_latency_s rt_latency_s
                   (rt_latency_s /. Float.max sim_latency_s 1e-9)
                   (if ok then "OK" else "FAIL")
                   (if rt_r.R.o_fd.Check.ok then "OK" else "flapped"))
              ok))
      sizes
  in
  (* One campaign (hence one BENCH_rt.json artifact) over both sweeps;
     rows print per subsection in canonical job order. *)
  let c = Runner.run ~jobs:1 ~exp:"rt" (probe_jobs @ latency_jobs) in
  let n_probe = List.length probe_jobs in
  let all_rows = Array.to_list (Array.map (fun r -> r.Runner.r_row) c.Runner.c_results) in
  let probe_rows = List.filteri (fun i _ -> i < n_probe) all_rows in
  let latency_rows = List.filteri (fun i _ -> i >= n_probe) all_rows in
  subsection
    (Printf.sprintf "accrual QoS vs heartbeat period (n=%d, 1 crash, %s)" probe_n
       (match transport with `Udp -> "udp loopback" | `Chan -> "chan"));
  Printf.printf "%-8s %-10s %-6s  %-10s %-10s %-9s %-8s\n" "hb_ms" "detect_s" "undet"
    "mist/s" "mdur_s" "accuracy" "samples";
  List.iter print_endline probe_rows;
  subsection "kset decision latency: simulator (wall-equivalent) vs real domains";
  Printf.printf "%-5s %-5s  %-14s %-14s %-8s %-6s %-8s\n" "n" "t" "sim_latency_s"
    "rt_latency_s" "ratio" "ok" "fd";
  List.iter print_endline latency_rows;
  let path = Runner.write_artifact c in
  Printf.printf "[rt] %d jobs: %d failed, %.2fs wall -> %s\n"
    (Array.length c.Runner.c_results)
    (List.length (Runner.failures c))
    c.Runner.c_wall_s path

let all () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e5b ();
  e5c ();
  e6 ();
  e6b ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  sched ();
  obs ();
  explore ();
  chaos ()
