(* Per-input layer probes for traced runs: one call into each layer's
   public function on a distinct input, under a span, so each layer's
   cost on that input is measured on its own. *)

open Pypm

let graph_span name f = Span.with_ ~cat:"Graph" name f

(* Graphs above this size skip [Graph.validate] and graph decoding (which
   validates): validation is quadratic and takes about a minute on the
   20,001-node scan chain. *)
let validate_limit = 10_000

let on_input ~env g =
  let big = Graph.live_count g > validate_limit in
  graph_span "Graph.live_nodes" (fun () -> ignore (Graph.live_nodes g));
  (match Graph.nodes g with
  | first :: _ -> graph_span "Graph.users" (fun () -> ignore (Graph.users g first))
  | [] -> ());
  let view = Span.with_ ~cat:"Term_view" "Term_view.create" (fun () -> Term_view.create g) in
  List.iter
    (fun n ->
      Span.with_ ~cat:"Term_view" "Term_view.term_of" (fun () ->
          ignore (Term_view.term_of view n)))
    (Graph.outputs g);
  if not big then graph_span "Graph.validate" (fun () -> ignore (Graph.validate g));
  let bytes =
    Span.with_ ~cat:"Codec.Graphs" "Codec.Graphs.encode" (fun () -> Codec.Graphs.encode g)
  in
  let frame =
    Span.with_ ~cat:"Protocol" "Protocol.encode_request" (fun () ->
        Protocol.frame (Protocol.encode_request (Inputs.serve_request ~id:0 ~round:0 bytes)))
  in
  if not big then
    ignore
      (Span.with_ ~cat:"Codec.Graphs" "Codec.Graphs.decode_into" (fun () ->
           Codec.Graphs.decode_into ~sg:(Signature.copy env.Std_ops.sg)
             ~infer:env.Std_ops.infer bytes));
  ignore (Span.with_ ~cat:"Fuzz" "Fuzz.fingerprint" (fun () -> Fuzz.fingerprint g));
  ignore (Span.with_ ~cat:"Exec" "Exec.graph_cost" (fun () -> Exec.graph_cost Cost.a6000 g));
  String.length frame

(* Pass counters summed over operations. *)
type pass_totals = {
  mutable ops : int;
  mutable pass_s : float;
  mutable iterations : int;
  mutable visited : int;
  mutable rewrites : int;
  mutable attempts : int;
  mutable matches : int;
}

let pass_totals () =
  { ops = 0; pass_s = 0.; iterations = 0; visited = 0; rewrites = 0; attempts = 0; matches = 0 }

let add_stats t (s : Pass.stats) =
  t.ops <- t.ops + 1;
  t.pass_s <- t.pass_s +. s.Pass.wall_time;
  t.iterations <- t.iterations + s.Pass.iterations;
  t.visited <- t.visited + s.Pass.nodes_visited;
  t.rewrites <- t.rewrites + s.Pass.total_rewrites;
  List.iter
    (fun (p : Pass.pattern_stats) ->
      t.attempts <- t.attempts + p.Pass.attempts;
      t.matches <- t.matches + p.Pass.matches)
    s.Pass.per_pattern

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_op t v = ratio v t.ops

(* The per-layer metrics every workload reports, from the spans, the pass
   counters [t], and the mean request frame size of the distinct inputs. *)
let common_layers ~request_bytes ~overhead_pct t =
  let open Report in
  let term_view =
    match Span.count "Term_view.create" with
    | 0 -> 0.
    | n ->
        (Span.total_ms "Term_view.create" +. Span.total_ms "Term_view.term_of")
        /. float_of_int n
  in
  [
    metric "analysis.lint_ms" "ms" (Span.mean_ms "Pypm_api.lint");
    metric "plan.prepare_ms" "ms" (Span.mean_ms "Pypm_api.prepare");
    metric "engine.pass_ms" "ms" (t.pass_s *. 1000. /. float_of_int (max 1 t.ops))
      ~note:"per operation";
    metric "engine.iterations" "count" (per_op t t.iterations) ~note:"per operation";
    metric "engine.nodes_visited" "count" (per_op t t.visited) ~note:"per operation";
    metric "engine.rewrites" "count" (per_op t t.rewrites) ~note:"per operation";
    metric "engine.rewrite_yield" "ratio" (ratio t.rewrites t.visited)
      ~note:"rewrites / nodes visited";
    metric "semantics.match_attempts" "count" (per_op t t.attempts)
      ~note:"backtracking-matcher runs per operation";
    metric "semantics.match_yield" "ratio" (ratio t.matches t.attempts)
      ~note:"matches / attempts";
    metric "graph.live_nodes_ms" "ms" (Span.mean_ms "Graph.live_nodes");
    metric "graph.users_ms" "ms" (Span.mean_ms "Graph.users");
    metric "graph.term_view_ms" "ms" term_view;
    metric "graph.validate_ms" "ms" (Span.mean_ms "Graph.validate");
    metric "kernels.cost_ms" "ms" (Span.mean_ms "Exec.graph_cost");
    metric "serialize.encode_ms" "ms" (Span.mean_ms "Codec.Graphs.encode");
    metric "serialize.decode_ms" "ms" (Span.mean_ms "Codec.Graphs.decode_into");
    metric "serialize.request_bytes" "bytes" request_bytes;
    metric "fuzz.fingerprint_ms" "ms" (Span.mean_ms "Fuzz.fingerprint");
    metric "trace.overhead_pct" "%" overhead_pct
      ~note:"traced against untraced operation time";
  ]
