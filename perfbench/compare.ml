(* Compare two results files (JSONL records written by [perfbench run]).

   For each workload and end-to-end metric: median and quartiles of
   each side's untraced runs, the relative delta of the medians, and a
   verdict against the metric's bound in BENCHMARK.json.  A side whose
   spread (IQR / median) exceeds the bound cannot tell a change from
   noise, so the metric is "unresolved" — never "unchanged".  Per-layer
   metrics (traced runs) are printed as median deltas.  Only records
   whose outputs checked correct contribute figures; each side's runs,
   attempted and failed operations are printed, and a larger share of
   failed operations or of runs not correct on side B is a regression.  Exit 1 when anything
   regressed, 2 when BENCHMARK.json has no bound for a metric. *)

open Setagree_util

let load path =
  match Pstats.read_file path with
  | None -> failwith ("cannot read " ^ path)
  | Some text ->
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
      |> List.filter_map (fun l ->
             match Json.of_string l with Ok j -> Some j | Error _ -> None)

let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> ""

let int k j = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

(* End-to-end figures come from untraced runs only, per-layer ones from
   traced runs; a run whose outputs failed a check contributes none. *)
let values recs ~workload ~section name =
  let traced = section = "per_layer" in
  List.filter_map
    (fun r ->
      if
        str "workload" r <> workload
        || Json.member "trace" r <> Some (Json.Bool traced)
        || Json.member "correct" r <> Some (Json.Bool true)
      then None
      else
        match Json.member section r with
        | Some (Json.Obj _ as o) ->
            Option.bind (Json.member name o) (fun m ->
                Option.bind (Json.member "value" m) Json.to_float_opt)
        | _ -> None)
    recs

(* name -> (better_is_lower, bound) *)
let bounds path =
  match Option.map Json.of_string (Pstats.read_file path) with
  | Some (Ok j) -> (
      match Json.member "end_to_end" j with
      | Some (Json.List ms) ->
          List.filter_map
            (fun m ->
              match (Json.member "name" m, Option.bind (Json.member "bound" m) Json.to_float_opt) with
              | Some (Json.String n), Some b -> Some (n, (str "better" m <> "higher", b))
              | _ -> None)
            ms
      | _ -> [])
  | _ -> []

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let judge ~lower ~bound ~spread_a ~spread_b ~delta =
  if spread_a > bound || spread_b > bound then Unresolved
  else
    let worse = if lower then delta else -.delta in
    if worse > bound then Regressed else if worse < -.bound then Improved else Unchanged

let rel a b = if a = 0.0 then 0.0 else (b -. a) /. Float.abs a

type counts = { runs : int; incorrect : int; attempted : int; failed : int }

(* One workload's records: runs, runs whose outputs did not check
   correct, attempted and failed operations. *)
let counts recs ~workload =
  List.fold_left
    (fun c r ->
      if str "workload" r <> workload then c
      else
        {
          runs = c.runs + 1;
          incorrect = (c.incorrect + if Json.member "correct" r = Some (Json.Bool true) then 0 else 1);
          attempted = c.attempted + int "attempted" r;
          failed = c.failed + int "failed" r;
        })
    { runs = 0; incorrect = 0; attempted = 0; failed = 0 }
    recs

let share k n = if n = 0 then 0.0 else float_of_int k /. float_of_int n

(* Side B failed more: a larger share of failed operations or of runs
   that did not check correct. *)
let more_failed a b =
  share b.failed b.attempted > share a.failed a.attempted
  || share b.incorrect b.runs > share a.incorrect a.runs

let run ~benchmark a b =
  let ra = load a and rb = load b in
  let bounds = bounds benchmark in
  let missing = List.filter (fun (n, _) -> not (List.mem_assoc n bounds)) Catalog.end_to_end in
  if missing <> [] then begin
    Printf.eprintf "compare: %s has no bound for %s\n" benchmark
      (String.concat ", " (List.map fst missing));
    exit 2
  end;
  let regressed = ref 0 in
  let ran c = c.runs > 0 in
  let show_counts c =
    Printf.sprintf "%d runs (%d not correct), %d attempted, %d failed" c.runs c.incorrect
      c.attempted c.failed
  in
  List.iter
    (fun w ->
      let ca = counts ra ~workload:w and cb = counts rb ~workload:w in
      Printf.printf "== %s\n" w;
      let worse = more_failed ca cb in
      if worse then incr regressed;
      Printf.printf "  operations: A %s; B %s%s\n" (show_counts ca) (show_counts cb)
        (if worse then "  regressed (more failed on B)" else "");
      Printf.printf "  %-30s %-26s %-26s %8s  %s\n" "metric" "A median [q1, q3]"
        "B median [q1, q3]" "delta" "verdict";
      List.iter
        (fun (name, unit) ->
          let xa = values ra ~workload:w ~section:"end_to_end" name
          and xb = values rb ~workload:w ~section:"end_to_end" name in
          if xa <> [] && xb <> [] then begin
            let show xs =
              match Pstats.quantiles xs with
              | [ q1; _; q3 ] -> Printf.sprintf "%.4g [%.4g, %.4g]" (Pstats.median xs) q1 q3
              | _ -> "?"
            in
            let ma = Pstats.median xa and mb = Pstats.median xb in
            let delta = rel ma mb in
            let lower, bound = List.assoc name bounds in
            let v =
              judge ~lower ~bound ~spread_a:(Pstats.spread xa) ~spread_b:(Pstats.spread xb) ~delta
            in
            if v = Regressed then incr regressed;
            Printf.printf "  %-30s %-26s %-26s %+7.1f%%  %s (bound %g, %s, n=%d/%d)\n"
              (name ^ " " ^ unit) (show xa) (show xb) (delta *. 100.0) (verdict_to_string v)
              bound
              (if lower then "lower is better" else "higher is better")
              (List.length xa) (List.length xb)
          end)
        Catalog.end_to_end;
      let layer_rows =
        List.filter_map
          (fun (name, unit) ->
            let xa = values ra ~workload:w ~section:"per_layer" name
            and xb = values rb ~workload:w ~section:"per_layer" name in
            if xa = [] || xb = [] then None
            else
              let ma = Pstats.median xa and mb = Pstats.median xb in
              if ma = 0.0 && mb = 0.0 then None else Some (name, unit, ma, mb))
          Catalog.per_layer
      in
      if layer_rows <> [] then begin
        Printf.printf "  per-layer (traced runs, medians):\n";
        List.iter
          (fun (name, unit, ma, mb) ->
            Printf.printf "    %-36s %12.5g -> %12.5g %-6s %+7.1f%%\n" name ma mb unit
              (rel ma mb *. 100.0))
          layer_rows
      end)
    (List.filter
       (fun w -> ran (counts ra ~workload:w) || ran (counts rb ~workload:w))
       Catalog.workloads);
  if !regressed > 0 then 1 else 0
