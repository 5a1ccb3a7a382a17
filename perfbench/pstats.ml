(* Order statistics for the benchmark's own figures.

   The quartile rule is the one Python's [statistics.quantiles(xs, n=4)]
   applies by default (method "exclusive"), so a spread printed here is
   the spread a script over the same samples computes. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Pstats.median: no samples"
  | a ->
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quantiles ~n xs]: the n-1 cut points dividing the samples into [n]
   groups, by linear interpolation on rank (i * (len+1) / n). *)
let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Pstats.quantiles: no samples";
  if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun i0 ->
        let i = i0 + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* Interquartile range as a share of the median: the benchmark's
   steadiness figure.  0 for a single sample. *)
let spread xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] ->
      let m = median xs in
      if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
  | _ -> assert false

(* The tail: the highest percentile that still has at least ten samples
   beyond it, so it is never one outlier.  Candidates are 99.9, then the
   whole percentiles 99 down to 50, each taken by the nearest-rank rule
   of [Stats.percentile].  Below 20 samples no candidate qualifies and
   the tail is the maximum, labelled "max".  Returns (label, value). *)
let tail xs =
  let n = List.length xs in
  if n = 0 then invalid_arg "Pstats.tail: no samples";
  (* The rank [Stats.percentile xs q] picks. *)
  let rank q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  (* In per mille, so k / 1000 is the double nearest the percentile. *)
  let candidates = 999 :: List.init 50 (fun i -> 10 * (99 - i)) in
  match List.find_opt (fun k -> n - rank (float_of_int k /. 1000.0) >= 10) candidates with
  | Some k ->
      let label =
        if k mod 10 = 0 then Printf.sprintf "p%d" (k / 10)
        else Printf.sprintf "p%d.%d" (k / 10) (k mod 10)
      in
      (label, Setagree_util.Stats.percentile xs (float_of_int k /. 1000.0))
  | None -> ("max", List.fold_left Float.max neg_infinity xs)

(* VmHWM (peak resident set) from the text of a /proc/<pid>/status file,
   in MiB.  [None] when the line is absent or malformed. *)
let vmhwm_mb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) rest)
               |> List.filter (( <> ) "")
             with
             | [ kb; "kB" ] -> (
                 match int_of_string_opt kb with
                 | Some k -> Some (float_of_int k /. 1024.0)
                 | None -> None)
             | _ -> None)
         | _ -> None)

let read_file path =
  match open_in_bin path with
  | ic ->
      let buf = Buffer.create 2048 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let k = input ic chunk 0 4096 in
        if k > 0 then (
          Buffer.add_subbytes buf chunk 0 k;
          go ())
      in
      go ();
      close_in ic;
      Some (Buffer.contents buf)
  | exception Sys_error _ -> None

let peak_rss_mb pid =
  Option.bind (read_file (Printf.sprintf "/proc/%s/status" pid)) vmhwm_mb
