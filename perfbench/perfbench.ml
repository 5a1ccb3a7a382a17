(* perfbench: the repository's performance ledger.

     perfbench run --workload W --seed N --seconds S --trace 0|1 --fdkit PATH
     perfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]

   [run] measures one workload for about S seconds, checks every output,
   appends a stamped record to .perfbench/results.jsonl and prints the
   one-line JSON result last.
   [compare] sets two results files side by side.  perfbench/run.py
   builds this program and calls it; see perfbench/METRICS.md. *)

open Setagree_core

let usage () =
  prerr_endline
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 --fdkit PATH\n\
    \       perfbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]";
  exit 2

(* "--key value" pairs and positional arguments. *)
let rec flags = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      let opts, pos = flags rest in
      ((String.sub k 2 (String.length k - 2), v) :: opts, pos)
  | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" -> usage ()
  | x :: rest ->
      let opts, pos = flags rest in
      (opts, x :: pos)
  | [] -> ([], [])

let run_cmd args =
  let opts, extra = flags args in
  if extra <> [] then usage ();
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  let run =
    match workload with
    | "kset_large" -> W_kset.run
    | "chaos_campaign" -> W_chaos.run
    | "serve_mixed" -> W_serve.run
    | "explore_dry" -> W_explore.run
    | w ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" w (String.concat ", " Catalog.workloads);
        exit 2
  in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let tmp = Printf.sprintf ".perfbench/tmp-%d" (Unix.getpid ()) in
  Bench.rm_rf tmp;
  Bench.mkdir_p tmp;
  Fingerprint.install ();
  if traced then Spans.enable ();
  let ctx =
    {
      Bench.workload;
      seed;
      seconds = float_of_int seconds;
      traced;
      tmp;
      fdkit = get "fdkit";
      attempted = 0;
      failed = 0;
      metrics = Hashtbl.create 64;
      labels = Hashtbl.create 8;
    }
  in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b cores=%d ocaml=%s schema=%d code=%s\n%!"
    workload seed seconds traced
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Setagree_util.Stamp.schema_version
    (Setagree_util.Stamp.fingerprint ());
  let result = try Ok (run ctx) with e -> Error (Printexc.to_string e) in
  Bench.rm_rf tmp;
  match result with
  | Error e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload e;
      exit 1
  | Ok () ->
      if traced then
        Bench.record_spans ctx
          ~path:(Printf.sprintf ".perfbench/spans-%s-%d.jsonl" workload seed);
      Bench.finish ctx ~results:".perfbench/results.jsonl"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "compare" :: args -> (
      let opts, files = flags args in
      let benchmark = Option.value ~default:"BENCHMARK.json" (List.assoc_opt "benchmark" opts) in
      match files with
      | [ a; b ] -> exit (Compare.run ~benchmark a b)
      | _ -> usage ())
  | _ -> usage ()
