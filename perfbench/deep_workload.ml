(* [deep]: three large seeded graphs, optimized in process with the plan
   engine. *)

open Pypm

let device = Cost.a6000

type kind = Fire | Scan | Stack

let kinds = [ Fire; Scan; Stack ]
let kind_name = function Fire -> "fire chain" | Scan -> "scan chain" | Stack -> "stack"

type op = { kind : kind; traced : bool; nodes : int; dt : float; verdict : Checks.verdict }

let build ~seed = function
  | Fire -> Inputs.fire_chain ~seed ()
  | Scan -> Inputs.scan_chain ~seed
  | Stack -> Inputs.stack ~seed

let run ~seed ~seconds ~traced =
  (* set-up runs ten times before the first round and forty times before
     every round, so its samples spread over the run; a run holds only a
     few of these long rounds *)
  let setups = ref [] in
  Span.set_recording traced;
  ignore (Report.timed_repeat setups 10 (Full.setup Pass.Plan));
  Span.set_recording false;
  let totals = Probes.pass_totals () in
  let ops = ref [] in
  (* unoptimized and optimized cost per kind, from its first correct run *)
  let costs = Hashtbl.create 3 in
  let round ~traced _ =
    let _, prepared = Report.timed_repeat setups 40 (Full.setup Pass.Plan) in
    List.fold_left
      (fun round_s kind ->
        let g = build ~seed kind in
        let nodes = Graph.live_count g in
        let fp_before = if kind = Scan then Fuzz.fingerprint g else "" in
        let cost_before = Exec.graph_cost device g in
        let stats, dt = Full.optimize ~traced Pass.Plan prepared g in
        if traced then Probes.add_stats totals stats;
        let rewrites = stats.Pass.total_rewrites in
        let verdict =
          match kind with
          | Fire -> Checks.fire_chain ~links:Inputs.fire_chain_links ~rewrites g
          | Scan ->
              let after = Span.with_ ~cat:"Fuzz" "Fuzz.fingerprint" (fun () -> Fuzz.fingerprint g) in
              Checks.scan_chain ~rewrites ~before:fp_before ~after
          | Stack ->
              Checks.op_count ~label:"FMHA" Std_ops.fmha
                ~expected:(Transformer.expected_mha_sites (Inputs.stack_config ~seed))
                g
        in
        if Result.is_ok verdict && not (Hashtbl.mem costs kind) then
          Hashtbl.replace costs kind
            (cost_before, Span.with_ ~cat:"Exec" "Exec.graph_cost" (fun () -> Exec.graph_cost device g));
        ops := { kind; traced; nodes; dt; verdict } :: !ops;
        round_s +. dt)
      0. kinds
  in
  let rounds = Rounds.split ~traced ~seconds round in
  let rss = Report.peak_rss_mb None in
  let ops = List.rev !ops in
  let ok o = Result.is_ok o.verdict in
  let untraced = List.filter (fun o -> not o.traced) ops in
  let times kind = List.filter_map (fun o -> if o.kind = kind && ok o then Some o.dt else None) untraced in
  let nodes kind = (List.find (fun o -> o.kind = kind) ops).nodes in
  (* correct input nodes per second of pass time, over the untraced loop *)
  let rate =
    float_of_int (List.fold_left (fun a o -> if ok o then a + o.nodes else a) 0 untraced)
    /. Summary.sum (List.map (fun o -> o.dt) untraced)
  in
  let speedups = Hashtbl.fold (fun _ (b, a) acc -> (b /. a) :: acc) costs [] in
  let per_kind name kind =
    Report.metric name "s" (Summary.median (times kind))
      ~note:
        (Printf.sprintf "median of %d, %s of %d nodes" (List.length (times kind))
           (kind_name kind) (nodes kind))
  in
  let end_to_end =
    Report.
      [
        metric "setup_s" "s" (Summary.median !setups)
          ~note:
            (Printf.sprintf "median of %d: environment, full program, lint, prepare"
               (List.length !setups));
        metric "peak_rss_mb" "MiB" rss;
        metric "nodes_per_s" "nodes/s" rate
          ~note:(Printf.sprintf "over %d passes" (List.length untraced));
        metric "sim_speedup_geomean" "x" (Summary.geomean speedups)
          ~note:(Printf.sprintf "over %d graphs" (List.length speedups));
        per_kind "fire_chain_s" Fire;
        per_kind "scan_chain_s" Scan;
        per_kind "stack_s" Stack;
      ]
  in
  let layers =
    if not traced then []
    else begin
      Span.set_recording true;
      let env = Std_ops.make () in
      let bytes = List.fold_left (fun a k -> a + Probes.on_input ~env (build ~seed k)) 0 kinds in
      Span.set_recording false;
      Probes.common_layers
        ~request_bytes:(float_of_int bytes /. 3.)
        ~overhead_pct:(Rounds.overhead_pct rounds) totals
      @ [
          Report.metric "obs.events" "count" (Probes.ratio !Full.events totals.Probes.ops)
            ~note:"per operation";
        ]
    end
  in
  Report.make ~workload:"deep"
    ~verdicts:(List.map (fun o -> (kind_name o.kind, false, o.verdict)) ops)
    ~end_to_end ~layers
