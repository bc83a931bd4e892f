(* What a workload run hands back, and how it is printed. *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

type t = {
  workload : string;
  attempted : int;
  failed : int;
  unexpected : int;
      (** failed operations outside the known fault the workload keeps
          visible; any makes the run incorrect *)
  failures : (string * int) list;  (** failure reason, occurrences *)
  end_to_end : metric list;
  layers : metric list;  (** empty unless traced *)
}

(* A workload's result from one verdict per operation: its label, whether
   a failure there is the known fault the workload keeps visible, and the
   verdict. *)
let make ~workload ~verdicts ~end_to_end ~layers =
  let failed =
    List.filter_map
      (fun (label, known, v) ->
        match v with Error e -> Some (label ^ ": " ^ e, known) | Ok () -> None)
      verdicts
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (why, _) ->
      Hashtbl.replace counts why (1 + Option.value ~default:0 (Hashtbl.find_opt counts why)))
    failed;
  {
    workload;
    attempted = List.length verdicts;
    failed = List.length failed;
    unexpected = List.length (List.filter (fun (_, known) -> not known) failed);
    failures = List.sort compare (Hashtbl.fold (fun why n acc -> (why, n) :: acc) counts []);
    end_to_end;
    layers;
  }

let pp_metric kind m =
  Printf.printf "%-9s %-26s %16.6f %-8s %s\n" kind m.name m.value m.unit_ m.note

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Human-readable report, then the result as one JSON line: end-to-end
   metrics untraced, per-layer metrics traced. *)
let print ~traced r =
  Printf.printf "workload %s: %d operation(s) attempted, %d failed (%d unexpected)\n"
    r.workload r.attempted r.failed r.unexpected;
  List.iter (fun (why, n) -> Printf.printf "  failed x%d: %s\n" n why) r.failures;
  List.iter (pp_metric "e2e") r.end_to_end;
  List.iter (pp_metric "layer") r.layers;
  let shown = if traced then r.layers else r.end_to_end in
  let metrics =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" m.name
             (json_number m.value) m.unit_)
         shown)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (r.unexpected = 0) r.attempted r.failed metrics

(* Peak resident set (VmHWM) of a process, MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let now = Pypm.Obs.monotonic

(* Run [f] [k] times, adding each duration to [samples]; the last
   result. The major heap is collected first, untimed, so the samples do
   not pay for garbage the work before them left. *)
let timed_repeat samples k f =
  Gc.full_major ();
  let rec go i =
    let t0 = now () in
    let r = f () in
    samples := (now () -. t0) :: !samples;
    if i + 1 < k then go (i + 1) else r
  in
  go 0
