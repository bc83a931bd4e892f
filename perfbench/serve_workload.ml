(* [serve]: a [pypmc serve] process with one worker, driven by one
   closed-loop client connection. *)

open Pypm

let device = Cost.a6000

(* --- the server process and its connection ------------------------ *)

type conn = { fd : Unix.file_descr; reader : Protocol.Reader.t; buf : Bytes.t }

let live = ref []

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Report.now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Report.now () -. t0 > 10. then (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        else (
          Unix.sleepf 0.005;
          wait ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter stop_server !live)

let spawn ~pypmc ~socket =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process pypmc
      [| pypmc; "serve"; "--socket"; socket; "--workers"; "1"; "--cache-mb"; "1";
         "--drain-timeout"; "1" |]
      null null null
  in
  Unix.close null;
  live := pid :: !live;
  pid

let connect ~socket =
  let t0 = Report.now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; reader = Protocol.Reader.create (); buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Report.now () -. t0 < 30. ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

exception Transport of string

let timeout_s = 60.

let send c payload =
  let s = Protocol.frame payload in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let rec recv c =
  match Protocol.Reader.next c.reader with
  | `Frame f -> f
  | `Error e -> raise (Transport e)
  | `Await -> (
      match Unix.select [ c.fd ] [] [] timeout_s with
      | [], _, _ -> raise (Transport "no response within 60 s")
      | _ -> (
          match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
          | 0 -> raise (Transport "connection closed")
          | n ->
              Protocol.Reader.feed c.reader (Bytes.sub_string c.buf 0 n);
              recv c))

let decode frame =
  match
    Span.with_ ~cat:"Protocol" "Protocol.decode_response" (fun () ->
        Protocol.decode_response frame)
  with
  | Ok r -> r
  | Error e -> raise (Transport ("undecodable response: " ^ e))

let call c req =
  send c (Protocol.encode_request req);
  decode (recv c)

(* --- the workload ------------------------------------------------- *)

type entry = {
  spec : Inputs.entry;
  bytes : string;
  nodes : int;
  types : Ty.t option list;
  cost : float;
}

type op = {
  idx : int;
  traced : bool;
  expected_cached : bool;
  lat : float;
  service_s : float;
  stats_json : string;  (** misses only *)
  verdict : Checks.verdict;
  known : bool;  (** failed with the cache-key fault's exact symptom *)
}

(* The number after each ["key":] in a stats JSON, summed. *)
let json_ints key s =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length s and k = String.length pat in
  let rec go i acc =
    if i + k > n then acc
    else if String.sub s i k = pat then
      let j = ref (i + k) in
      while !j < n && (s.[!j] = '-' || s.[!j] = '.' || (s.[!j] >= '0' && s.[!j] <= '9')) do
        incr j
      done;
      go !j (acc +. float_of_string (String.sub s (i + k) (!j - i - k)))
    else go (i + 1) acc
  in
  go 0 0.

let run ~pypmc ~work_dir ~seed ~seconds ~traced =
  (* a write to a connection the server has closed raises EPIPE, which the
     loop counts as a failed request, instead of killing the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let env = Std_ops.make () in
  let pool =
    Array.map
      (fun (spec : Inputs.entry) ->
        let g = Transformer.build env spec.Inputs.cfg in
        {
          spec;
          bytes = Codec.Graphs.encode g;
          nodes = Graph.live_count g;
          types = Checks.output_types g;
          cost = Exec.graph_cost device g;
        })
      (Inputs.serve_pool ~seed)
  in
  (* Bases are told apart by size; a base sharing a size with another
     would share its cache key too. *)
  let base_sizes =
    List.filter_map (fun e -> if e.spec.Inputs.variant_of = None then Some e.nodes else None)
      (Array.to_list pool)
  in
  if List.length (List.sort_uniq compare base_sizes) <> List.length base_sizes then
    failwith "serve pool: two bases of the same size";
  let warm_up =
    Codec.Graphs.encode
      (Transformer.build env (Transformer.config ~layers:2 ~hidden:96 ~seq:24 ~batch:3 "warm-up"))
  in
  let spawns = ref 0 in
  let start () =
    incr spawns;
    let socket = Filename.concat work_dir (Printf.sprintf "pb-%d-%d.sock" (Unix.getpid ()) !spawns) in
    let pid = spawn ~pypmc ~socket in
    let c = connect ~socket in
    (match call c (Protocol.Health { id = 1 }) with
    | Protocol.Health_report { health; _ } when health.Protocol.status = "ok" -> ()
    | r -> failwith ("server health: " ^ Checks.response_kind r));
    (match call c (Inputs.serve_request ~id:2 ~round:(-1) warm_up) with
    | Protocol.Result _ -> ()
    | r -> failwith ("warm-up request: " ^ Checks.response_kind r));
    (pid, socket, c)
  in
  (* Set-up samples: the loop's server, plus throwaway servers started
     (and stopped, untimed) twice before the loop and once before every
     round, so the samples spread over the run. *)
  let setups = ref [] in
  let throwaway () =
    let pid, _, c = Report.timed_repeat setups 1 start in
    Unix.close c.fd;
    stop_server pid
  in
  throwaway ();
  throwaway ();
  let pid, socket, c = Report.timed_repeat setups 1 start in
  let c = ref c in
  let specs = Array.map (fun e -> e.spec) pool in
  let ops = ref [] in
  let memo = Hashtbl.create 64 in
  let next_id = ref 100 in
  let round ~traced r =
    throwaway ();
    Gc.full_major ();
    let seen = Hashtbl.create 32 in
    Array.fold_left
      (fun loop_s idx ->
        let e = pool.(idx) in
        let expected_cached = Hashtbl.mem seen idx in
        Hashtbl.replace seen idx ();
        incr next_id;
        let payload =
          Span.with_ ~cat:"Protocol" "Protocol.encode_request" (fun () ->
              Protocol.encode_request (Inputs.serve_request ~id:!next_id ~round:r e.bytes))
        in
        let t0 = Report.now () in
        let answer =
          match
            send !c payload;
            recv !c
          with
          | frame -> Ok frame
          | exception (Transport why | Unix.Unix_error (_, why, _)) -> Error why
        in
        let lat = Report.now () -. t0 in
        let op ?(known = false) verdict service_s stats_json =
          { idx; traced; expected_cached; lat; service_s; stats_json; verdict; known }
        in
        let o =
          match Result.map decode answer with
          | Ok (Protocol.Result { cached; service_s; body; _ }) ->
              let key = (idx, Digest.string body, cached) in
              let checked, known =
                match Hashtbl.find_opt memo key with
                | Some v -> v
                | None ->
                    let expected_fmha = Transformer.expected_mha_sites e.spec.Inputs.cfg in
                    let checked =
                      Result.map
                        (fun g ->
                          Span.with_ ~cat:"Exec" "Exec.graph_cost" (fun () ->
                              Exec.graph_cost device g))
                        (Checks.result_graph ~env ~request_types:e.types ~expected_fmha body)
                    in
                    (* only the fault's own symptom is excused on a variant *)
                    let known =
                      match (checked, e.spec.Inputs.variant_of) with
                      | Error _, Some b ->
                          Checks.base_answer ~env ~base_types:pool.(b).types ~expected_fmha
                            ~cached body
                      | _ -> false
                    in
                    Hashtbl.replace memo key (checked, known);
                    (checked, known)
              in
              let stats_json =
                if cached then ""
                else
                  match Protocol.decode_outcome body with
                  | Ok out -> out.Protocol.stats_json
                  | Error _ -> ""
              in
              op ~known
                (Checks.all
                   [ Result.map ignore checked; Checks.cached_flag ~expected:expected_cached cached ])
                service_s stats_json
          | Ok r -> op (Error ("expected a Result, got " ^ Checks.response_kind r)) nan ""
          | Error why | (exception Transport why) ->
              (* a broken connection: reconnect for the next request *)
              (try Unix.close !c.fd with Unix.Unix_error _ -> ());
              c := connect ~socket;
              op (Error ("transport: " ^ why)) nan ""
        in
        ops := o :: !ops;
        loop_s +. lat)
      0.
      (Inputs.serve_stream ~seed ~round:r specs)
  in
  let rounds = Rounds.split ~traced ~seconds round in
  let rss = Report.peak_rss_mb (Some pid) in
  let server_stats =
    match call !c (Protocol.Stats { id = 3 }) with
    | Protocol.Stats_report { stats; _ } -> stats
    | r -> failwith ("server stats: " ^ Checks.response_kind r)
  in
  Unix.close !c.fd;
  stop_server pid;
  let ops = List.rev !ops in
  let ok o = Result.is_ok o.verdict in
  let untraced = List.filter (fun o -> not o.traced) ops in
  let ms o = o.lat *. 1000. in
  let hits = List.filter_map (fun o -> if ok o && o.expected_cached then Some (ms o) else None) untraced in
  let misses =
    List.filter_map (fun o -> if ok o && not o.expected_cached then Some (ms o) else None) untraced
  in
  (* correctly answered input nodes per second of closed-loop time *)
  let rate =
    float_of_int
      (List.fold_left (fun a o -> if ok o then a + pool.(o.idx).nodes else a) 0 untraced)
    /. Summary.sum (List.map (fun o -> o.lat) untraced)
  in
  let speedups =
    List.filter_map
      (fun i ->
        if not (List.exists (fun o -> o.idx = i && ok o) ops) then None
        else
          Hashtbl.fold
            (fun (j, _, _) (v, _) acc ->
              match (v, acc) with
              | Ok c, None when j = i -> Some (pool.(i).cost /. c)
              | _ -> acc)
            memo None)
      (List.init (Array.length pool) Fun.id)
  in
  let tail name xs =
    match Summary.tail xs with
    | Some (p, v) ->
        [ Report.metric name "ms" v ~note:(Printf.sprintf "p%g of %d samples" p (List.length xs)) ]
    | None -> []
  in
  let end_to_end =
    Report.
      [
        metric "setup_s" "s" (Summary.median !setups)
          ~note:
            (Printf.sprintf "median of %d: spawn the server, Health, one warm-up request"
               (List.length !setups));
        metric "peak_rss_mb" "MiB" rss ~note:"server process";
        metric "nodes_per_s" "nodes/s" rate
          ~note:
            (Printf.sprintf "over %d rounds of %d requests" (List.length (fst rounds))
               (Inputs.sends_per_round * Array.length pool));
        metric "sim_speedup_geomean" "x" (Summary.geomean speedups)
          ~note:(Printf.sprintf "over %d pool graphs" (List.length speedups));
        metric "hit_p50_ms" "ms" (Summary.median hits)
          ~note:(Printf.sprintf "%d hits" (List.length hits));
        metric "miss_p50_ms" "ms" (Summary.median misses)
          ~note:(Printf.sprintf "%d misses" (List.length misses));
      ]
    @ tail "hit_tail_ms" hits @ tail "miss_tail_ms" misses
  in
  let layers =
    if not traced then []
    else begin
      Span.set_recording true;
      ignore (Full.setup Pass.Plan ());
      let bytes =
        Array.fold_left
          (fun a e -> a + Probes.on_input ~env (Transformer.build env e.spec.Inputs.cfg))
          0 pool
      in
      Span.set_recording false;
      (* pass counters, from the stats the server returned with each miss *)
      let t = Probes.pass_totals () in
      List.iter
        (fun o ->
          if o.stats_json <> "" then begin
            let j k = int_of_float (json_ints k o.stats_json) in
            t.Probes.ops <- t.Probes.ops + 1;
            t.pass_s <- t.pass_s +. json_ints "wall_time_s" o.stats_json;
            t.iterations <- t.iterations + j "iterations";
            t.visited <- t.visited + j "nodes_visited";
            t.rewrites <- t.rewrites + j "total_rewrites";
            t.attempts <- t.attempts + j "attempts";
            t.matches <- t.matches + j "matches"
          end)
        ops;
      let service cached =
        Summary.median
          (List.filter_map
             (fun o -> if ok o && o.expected_cached = cached then Some (o.service_s *. 1000.) else None)
             ops)
      in
      let stat f = float_of_int (f server_stats) in
      Probes.common_layers
        ~request_bytes:(float_of_int bytes /. float_of_int (Array.length pool))
        ~overhead_pct:(Rounds.overhead_pct rounds) t
      @ Report.
          [
            metric "serve.hit_service_ms" "ms" (service true) ~note:"server service_s, median";
            metric "serve.miss_service_ms" "ms" (service false) ~note:"server service_s, median";
            metric "serve.hit_outside_ms" "ms"
              (Summary.median
                 (List.filter_map
                    (fun o ->
                      if ok o && o.expected_cached then Some ((o.lat -. o.service_s) *. 1000.)
                      else None)
                    ops))
              ~note:"client latency minus service_s, median";
            metric "serve.cache_hits" "count" (stat (fun s -> s.Protocol.cache_hits));
            metric "serve.cache_misses" "count" (stat (fun s -> s.Protocol.cache_misses));
            metric "serve.cache_entries" "count" (stat (fun s -> s.Protocol.cache_entries));
            metric "serve.cache_bytes" "bytes" (stat (fun s -> s.Protocol.cache_bytes));
          ]
    end
  in
  Report.make ~workload:"serve"
    ~verdicts:
      (List.map
         (fun o -> (pool.(o.idx).spec.Inputs.cfg.Transformer.name, o.known, o.verdict))
         ops)
    ~end_to_end ~layers
