(* [zoo]: every zoo model, optimized in process with the egraph engine. *)

open Pypm

let device = Cost.a6000

type op = { model : int; traced : bool; nodes : int; dt : float; verdict : Checks.verdict }

let run ~seed ~seconds ~traced =
  let models = Inputs.zoo_models () in
  let n_models = Array.length models in
  (* set-up runs ten times before the first sweep and before every sweep,
     so its samples spread over the run like the sweeps do *)
  let setups = ref [] in
  Span.set_recording traced;
  let prog, _ = Report.timed_repeat setups 10 (Full.setup Pass.Egraph) in
  Span.set_recording false;
  (* The references, once per model on fresh copies: the unoptimized
     cost, and the cost of the naive engine's result (the paper's
     reference algorithm). *)
  let reference =
    Array.map
      (fun (m : Zoo.model) ->
        let _, g = m.Zoo.build () in
        let before = Exec.graph_cost device g in
        ignore (Pass.run ~engine:Pass.Naive prog g);
        (before, Exec.graph_cost device g))
      models
  in
  let optimized_cost = Array.make n_models nan in
  let totals = Probes.pass_totals () in
  let ops = ref [] in
  let sweep ~traced round =
    let rng = Rng.create ~seed:((seed * 7919) + round) in
    let _, prepared = Report.timed_repeat setups 10 (Full.setup Pass.Egraph) in
    Array.fold_left
      (fun sweep_s i ->
        let m = models.(i) in
        let _, g = m.Zoo.build () in
        let nodes = Graph.live_count g in
        let before = Checks.output_types g in
        let sites = Checks.attention_sites g in
        let stats, dt = Full.optimize ~traced Pass.Egraph prepared g in
        if traced then Probes.add_stats totals stats;
        let cost = Span.with_ ~cat:"Exec" "Exec.graph_cost" (fun () -> Exec.graph_cost device g) in
        let verdict =
          Checks.all
            [
              Checks.same_types ~before g;
              Span.with_ ~cat:"Graph" "Graph.validate" (fun () -> Checks.valid g);
              (if m.Zoo.family = `HF then
                 Checks.op_count ~label:"FMHA" Std_ops.fmha ~expected:sites g
               else Ok ());
              Checks.cost_at_most ~reference:(snd reference.(i)) cost;
            ]
        in
        if Result.is_ok verdict then optimized_cost.(i) <- cost;
        ops := { model = i; traced; nodes; dt; verdict } :: !ops;
        sweep_s +. dt)
      0.
      (Inputs.shuffle rng (Array.init n_models Fun.id))
  in
  let sweeps = Rounds.split ~traced ~seconds sweep in
  let rss = Report.peak_rss_mb None in
  let ops = List.rev !ops in
  let ok o = Result.is_ok o.verdict in
  (* correct input nodes per second of pass time, over the untraced loop *)
  let untraced = List.filter (fun o -> not o.traced) ops in
  let rate =
    float_of_int (List.fold_left (fun a o -> if ok o then a + o.nodes else a) 0 untraced)
    /. Summary.sum (List.map (fun o -> o.dt) untraced)
  in
  let speedups =
    List.filter_map
      (fun i ->
        if Float.is_nan optimized_cost.(i) then None
        else Some (fst reference.(i) /. optimized_cost.(i)))
      (List.init n_models Fun.id)
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
          ~note:(Printf.sprintf "over %d sweeps" (List.length (fst sweeps)));
        metric "sim_speedup_geomean" "x" (Summary.geomean speedups)
          ~note:(Printf.sprintf "over %d models" (List.length speedups));
      ]
  in
  let layers =
    if not traced then []
    else begin
      Span.set_recording true;
      let env = Std_ops.make () in
      let plan = snd (Full.setup Pass.Plan ()) in
      let bytes = ref 0 and phase = ref [] in
      Array.iter
        (fun (m : Zoo.model) ->
          let _, g = m.Zoo.build () in
          bytes := !bytes + Probes.on_input ~env g;
          (* the saturation post-phase alone, on the greedy result *)
          ignore (Pypm_api.run ~config:(Full.config Pass.Plan) plan g);
          let t0 = Report.now () in
          match Span.with_ ~cat:"Eqsat" "Eqsat.phase" (fun () -> Eqsat.phase prog g) with
          | Ok o -> phase := (Report.now () -. t0, o) :: !phase
          | Error _ -> ())
        models;
      Span.set_recording false;
      let mean f = Summary.sum (List.map f !phase) /. float_of_int (max 1 (List.length !phase)) in
      Probes.common_layers
        ~request_bytes:(float_of_int !bytes /. float_of_int n_models)
        ~overhead_pct:(Rounds.overhead_pct sweeps) totals
      @ Report.
          [
            metric "egraph.phase_ms" "ms" (mean (fun (dt, _) -> dt *. 1000.)) ~note:"per model";
            metric "egraph.classes" "count"
              (mean (fun (_, o) -> float_of_int o.Eqsat.sat.Saturate.final_classes));
            metric "egraph.enodes" "count"
              (mean (fun (_, o) -> float_of_int o.Eqsat.sat.Saturate.final_nodes));
            metric "egraph.spliced" "count" (mean (fun (_, o) -> float_of_int o.Eqsat.spliced));
            metric "obs.events" "count" (Probes.ratio !Full.events totals.Probes.ops)
              ~note:"per operation";
          ]
    end
  in
  Report.make ~workload:"zoo"
    ~verdicts:(List.map (fun o -> (models.(o.model).Zoo.mname, false, o.verdict)) ops)
    ~end_to_end ~layers
