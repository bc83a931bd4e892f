type span = {
  id : int;
  name : string;
  cat : string;
  parent : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let log = ref []
let stack = ref []
let next_id = ref 1
let set_recording b = on := b

let with_ ~cat name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Pypm.Obs.monotonic () in
    let finish () =
      let t1 = Pypm.Obs.monotonic () in
      stack := List.tl !stack;
      log := { id; name; cat; parent; t0; t1 } :: !log
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let spans () = List.rev !log

let total_ms name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. ((s.t1 -. s.t0) *. 1000.) else acc)
    0. !log

let count name =
  List.fold_left (fun acc s -> if s.name = name then acc + 1 else acc) 0 !log

let mean_ms name =
  match count name with 0 -> 0. | n -> total_ms name /. float_of_int n

let write_chrome path =
  let all = spans () in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let us t = (t -. origin) *. 1e6 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}"
        (Pypm.Obs.json_escape s.name) (Pypm.Obs.json_escape s.cat) (us s.t0)
        (us s.t1 -. us s.t0) s.id s.parent)
    all;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
