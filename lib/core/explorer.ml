open Setagree_util
open Setagree_dsys
open Setagree_runner

type bounds = {
  depth : int;
  delays : int;
  walks : int;
  p_deviate : float;
  p_crash : float;
  max_runs_per_job : int;
  walk_batch : int;
  shrink_budget : int;
}

let default_bounds =
  {
    depth = 24;
    delays = 2;
    walks = 0;
    p_deviate = 0.25;
    p_crash = 0.05;
    max_runs_per_job = 400;
    walk_batch = 8;
    shrink_budget = 200;
  }

let bounds_to_json b =
  [
    ("depth", Json.Int b.depth);
    ("delays", Json.Int b.delays);
    ("walks", Json.Int b.walks);
    ("p_deviate", Json.Float b.p_deviate);
    ("p_crash", Json.Float b.p_crash);
    ("max_runs_per_job", Json.Int b.max_runs_per_job);
    ("walk_batch", Json.Int b.walk_batch);
    ("shrink_budget", Json.Int b.shrink_budget);
  ]

let bounds_of_json fields =
  let geti name d =
    match List.assoc_opt name fields with Some (Json.Int i) -> i | _ -> d
  in
  let getf name d =
    match Option.bind (List.assoc_opt name fields) Json.to_float_opt with
    | Some f -> f
    | None -> d
  in
  let d = default_bounds in
  {
    depth = geti "depth" d.depth;
    delays = geti "delays" d.delays;
    walks = geti "walks" d.walks;
    p_deviate = getf "p_deviate" d.p_deviate;
    p_crash = getf "p_crash" d.p_crash;
    max_runs_per_job = geti "max_runs_per_job" d.max_runs_per_job;
    walk_batch = geti "walk_batch" d.walk_batch;
    shrink_budget = geti "shrink_budget" d.shrink_budget;
  }

let schedule_of ~protocol ~(p : Protocol.params) (choices, notes) =
  {
    Schedule.protocol;
    params = Protocol.params_to_json p;
    crashes = p.crashes;
    choices;
    violation = notes;
  }

let jobs ?fingerprint ~protocol (p : Protocol.params) bounds =
  let pk =
    match Protocol.find protocol with
    | Some pk -> pk
    | None -> invalid_arg ("Explorer.jobs: unknown protocol " ^ protocol)
  in
  let make = Protocol.explore_make pk p in
  (* One content-address per subtree job: protocol fingerprint + params
     + bounds + the job's own label (which pins the subtree). *)
  let job_key label =
    Option.map
      (fun fp ->
        Runner.Cache.key
          ~parts:
            [
              string_of_int Stamp.schema_version;
              fp protocol;
              "explore";
              label;
              Json.to_string ~minify:true (Json.Obj (Protocol.params_to_json p));
              Json.to_string ~minify:true (Json.Obj (bounds_to_json bounds));
            ])
      fingerprint
  in
  (* Sequential probe: one default run to learn which of the first
     [depth] choice points have (unpruned) alternatives.  Each point with
     alternatives becomes one job owning the subtree of executions whose
     FIRST deviation is at that point — subtrees are disjoint, and the
     canonical job order (base, then points ascending, then walk batches)
     makes the merged output independent of the domain count. *)
  let probe_stats = Explore.new_stats () in
  let base = Explore.default_exec ~make ~stats:probe_stats ~depth:bounds.depth in
  let npoints = Array.length base.Explore.ex_options in
  let mk_job label body =
    Runner.job ~exp:"explore" ~label ~seed:p.Protocol.seed
      ~params:(Protocol.params_to_json p) ?key:(job_key label)
      (fun () ->
        let stats = Explore.new_stats () in
        let found = body stats in
        let ces =
          List.map
            (fun fv ->
              schedule_of ~protocol ~p
                (Explore.shrink ~make ~stats ~budget:bounds.shrink_budget fv))
            found
        in
        Runner.body
          ~notes:
            (List.sort_uniq compare
               (List.concat_map (fun (s : Schedule.t) -> s.Schedule.violation) ces))
          ~metrics:(Explore.stats_metrics stats)
          ~extra:(Json.List (List.map Schedule.to_json ces))
          true)
  in
  let base_job =
    mk_job (protocol ^ "/base") (fun stats ->
        let e = Explore.default_exec ~make ~stats ~depth:0 in
        if e.Explore.ex_violation <> [] then begin
          stats.Explore.violations <- stats.Explore.violations + 1;
          [ ([], e.Explore.ex_violation) ]
        end
        else [])
  in
  let point_jobs =
    List.init npoints Fun.id
    |> List.filter_map (fun q ->
           if Explore.alternatives_at probe_stats base q = [] then None
           else
             Some
               (mk_job
                  (Printf.sprintf "%s/point=%d" protocol q)
                  (fun stats ->
                    (* Self-contained: re-derive the base execution so the
                       job is re-runnable on any domain in any order. *)
                    let b = Explore.default_exec ~make ~stats ~depth:bounds.depth in
                    let roots = Explore.alternatives_at stats b q in
                    Explore.dfs ~make ~stats ~depth:bounds.depth
                      ~delays:bounds.delays ~max_runs:bounds.max_runs_per_job
                      roots)))
  in
  let nbatches = (bounds.walks + bounds.walk_batch - 1) / bounds.walk_batch in
  let walk_jobs =
    List.init nbatches (fun b ->
        let lo = (b * bounds.walk_batch) + 1 in
        let hi = min bounds.walks ((b + 1) * bounds.walk_batch) in
        mk_job
          (Printf.sprintf "%s/walks=%d-%d" protocol lo hi)
          (fun stats ->
            List.concat
              (List.init
                 (hi - lo + 1)
                 (fun i ->
                   let e =
                     Explore.random_walk ~make ~seed:(lo + i)
                       ~p_deviate:bounds.p_deviate ~p_crash:bounds.p_crash ()
                   in
                   stats.Explore.runs <- stats.Explore.runs + 1;
                   stats.Explore.points <- stats.Explore.points + e.Explore.ex_points;
                   if e.Explore.ex_violation <> [] then begin
                     stats.Explore.violations <- stats.Explore.violations + 1;
                     [ (e.Explore.ex_choices, e.Explore.ex_violation) ]
                   end
                   else []))))
  in
  base_job :: (point_jobs @ walk_jobs)

let counterexamples c =
  let seen = Hashtbl.create 16 in
  Array.to_list c.Runner.c_results
  |> List.concat_map (fun r ->
         match r.Runner.r_extra with Json.List l -> l | _ -> [])
  |> List.filter_map (fun j ->
         let key = Json.to_string ~minify:true j in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           match Schedule.of_json j with Ok s -> Some s | Error _ -> None
         end)

type outcome = { o_campaign : Runner.campaign; o_ces : Schedule.t list }

let explore ?jobs:j ?cache ?fingerprint ?on_progress ?on_telemetry ?stop
    ~protocol p bounds =
  let jl = jobs ?fingerprint ~protocol p bounds in
  let c =
    Runner.run ?jobs:j ?cache ?on_progress ?on_telemetry ?stop ~exp:"explore"
      jl
  in
  { o_campaign = c; o_ces = counterexamples c }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()

(* No timing fields: this artifact must be byte-identical across -j N. *)
let write_counterexamples ?(dir = "_results") ~protocol ces =
  ensure_dir dir;
  let path = Filename.concat dir "counterexamples.json" in
  Json.write_file path
    (Json.Obj
       (Stamp.fields ()
       @ [
           ("protocol", Json.String protocol);
           ("count", Json.Int (List.length ces));
           ("counterexamples", Json.List (List.map Schedule.to_json ces));
         ]));
  path

let load_counterexamples path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | Error msg -> Error msg
      | Ok j -> (
          match Json.member "counterexamples" j with
          | Some (Json.List l) ->
              Ok
                (List.filter_map
                   (fun cj ->
                     match Schedule.of_json cj with Ok s -> Some s | Error _ -> None)
                   l)
          | Some _ -> Error "counterexamples: expected a list"
          | None -> (
              (* Also accept a bare schedule file. *)
              match Schedule.of_json j with Ok s -> Ok [ s ] | Error e -> Error e)))

let replay (s : Schedule.t) =
  match Protocol.find s.Schedule.protocol with
  | None -> Error ("replay: unknown protocol " ^ s.Schedule.protocol)
  | Some pk ->
      let p =
        { (Protocol.params_of_json s.Schedule.params) with crashes = s.Schedule.crashes }
      in
      let make = Protocol.explore_make pk p in
      let e = Explore.run_schedule ~make s.Schedule.choices in
      Ok (e, e.Explore.ex_violation = s.Schedule.violation)
