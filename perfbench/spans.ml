(* In-memory span log for the traced run.

   A span has a name ("<layer>.<what>"), wall-clock start and end, the
   id of its parent span (0 for a root) and a request id shared by every
   span of one request or job.  Recording is off unless [enable] was
   called, so the untraced run pays one boolean read per call site.
   Spans may be recorded from worker domains (campaign progress
   callbacks); a mutex serializes the log. *)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let m = Mutex.create ()
let log : span list ref = ref []
let next = ref 0

let enable () = on := true

let add ?(parent = 0) ?(req = 0) name t0 t1 =
  if not !on then 0
  else begin
    Mutex.lock m;
    incr next;
    let id = !next in
    log := { id; name; parent; req; t0; t1 } :: !log;
    Mutex.unlock m;
    id
  end

(* A span whose children are recorded while it is open: reserve the id
   first, fill in the end time with [close]. *)
let start ?parent ?req name =
  add ?parent ?req name (Unix.gettimeofday ()) Float.nan

let close id =
  if !on && id > 0 then begin
    let now = Unix.gettimeofday () in
    Mutex.lock m;
    log := List.map (fun s -> if s.id = id then { s with t1 = now } else s) !log;
    Mutex.unlock m
  end

let all () = List.rev !log
let count () = List.length !log

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time per layer: a span's duration minus its children's, clamped
   at 0 where children overlap (parallel workers under one campaign
   span), summed per layer. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent > 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        Float.max 0.0
          ((s.t1 -. s.t0) -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))
      in
      let l = layer s.name in
      Hashtbl.replace acc l (own +. Option.value ~default:0.0 (Hashtbl.find_opt acc l)))
    spans;
  acc

let to_json s =
  let open Setagree_util.Json in
  Obj
    [
      ("id", Int s.id);
      ("name", String s.name);
      ("parent", Int s.parent);
      ("req", Int s.req);
      ("start", Float s.t0);
      ("end", Float s.t1);
    ]

(* One JSON object per line. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Setagree_util.Json.to_string ~minify:true (to_json s));
      output_char oc '\n')
    (all ());
  close_out oc
