(* The benchmark's output checks must reject wrong outputs: each test
   hands a check a deliberately wrong output next to the right one. *)

open Pypm
open Perfbench

let ok what v = Alcotest.(check bool) what true (Result.is_ok v)

let rejects what v =
  match v with
  | Ok _ -> Alcotest.failf "%s: a wrong output was accepted" what
  | Error _ -> ()

let full sg = Corpus.full_program sg

let optimize ?(max_rewrites = 10_000) ?(engine = Pass.Plan) prog g =
  Pass.run ~engine ~max_rewrites prog g

(* A result body as the server sends it. *)
let body g =
  Protocol.encode_outcome
    { Protocol.graph = Codec.Graphs.encode g; stats_json = "{}"; errors = []; fatal = None }

let test_response_types () =
  let env = Std_ops.make () in
  let base = List.nth Inputs.fixed_bases 0 in
  let variant = Inputs.shape_variant base in
  let optimized cfg =
    let g = Transformer.build env cfg in
    ignore (optimize (full env.Std_ops.sg) g);
    g
  in
  let request_types = Checks.output_types (Transformer.build env variant) in
  let expected_fmha = Transformer.expected_mha_sites variant in
  ok "the variant's own result"
    (Checks.result_graph ~env ~request_types ~expected_fmha (body (optimized variant)));
  rejects "the base's result for the variant"
    (Checks.result_graph ~env ~request_types ~expected_fmha (body (optimized base)));
  let base_types = Checks.output_types (Transformer.build env base) in
  let known cached g = Checks.base_answer ~env ~base_types ~expected_fmha ~cached (body g) in
  Alcotest.(check bool) "the base's cached result is the cache-key fault" true
    (known true (optimized base));
  Alcotest.(check bool) "a fresh answer with the base's types is not" false
    (known false (optimized base));
  Alcotest.(check bool) "the variant's own result is not" false (known true (optimized variant));
  ok "an expected hit" (Checks.cached_flag ~expected:true true);
  rejects "a hit where a miss was expected" (Checks.cached_flag ~expected:false true)

let test_fire_chain () =
  let links = 12 in
  let env = Std_ops.make () in
  let run max_rewrites =
    let g = Inputs.fire_chain ~links ~seed:5 () in
    let s = optimize ~max_rewrites (full env.Std_ops.sg) g in
    (s.Pass.total_rewrites, g)
  in
  let rewrites, g = run 10_000 in
  ok "every link fused" (Checks.fire_chain ~links ~rewrites g);
  let rewrites, g = run (links - 1) in
  rejects "one link left unfused" (Checks.fire_chain ~links ~rewrites g);
  rejects "one link left unfused, rewrites miscounted" (Checks.fire_chain ~links ~rewrites:links g)

let test_stack () =
  let env = Std_ops.make () in
  let cfg = Transformer.config ~layers:3 ~heads:4 ~seed:9 "stack-3" in
  let expected = Transformer.expected_mha_sites cfg in
  let fused max_rewrites =
    let g = Transformer.build env cfg in
    let mha_only = Program.restrict (full env.Std_ops.sg) [ "MHA" ] in
    ignore (optimize ~max_rewrites mha_only g);
    g
  in
  ok "every attention site fused" (Checks.op_count ~label:"FMHA" Std_ops.fmha ~expected (fused 10_000));
  rejects "one FMHA missing"
    (Checks.op_count ~label:"FMHA" Std_ops.fmha ~expected (fused (expected - 1)))

let test_cost () =
  let m = Option.get (Zoo.find "bert-tiny") in
  let env, reference_g = m.Zoo.build () in
  ignore (optimize ~engine:Pass.Naive (full env.Std_ops.sg) reference_g);
  let reference = Exec.graph_cost Cost.a6000 reference_g in
  let _, g = m.Zoo.build () in
  let unoptimized = Exec.graph_cost Cost.a6000 g in
  ignore (optimize ~engine:Pass.Egraph (full env.Std_ops.sg) g);
  ok "egraph result" (Checks.cost_at_most ~reference (Exec.graph_cost Cost.a6000 g));
  rejects "a cost above the reference" (Checks.cost_at_most ~reference unoptimized)

let test_scan_chain () =
  let g = Inputs.scan_chain ~seed:3 in
  let before = Fuzz.fingerprint g in
  ok "untouched chain" (Checks.scan_chain ~rewrites:0 ~before ~after:(Fuzz.fingerprint g));
  let other = Fuzz.fingerprint (Inputs.scan_chain ~seed:4) in
  rejects "a changed chain" (Checks.scan_chain ~rewrites:0 ~before ~after:other);
  rejects "a rewrite on it" (Checks.scan_chain ~rewrites:1 ~before ~after:before)

let test_zoo_attention_sites () =
  List.iter
    (fun (m : Zoo.model) ->
      let env, g = m.Zoo.build () in
      let sites = Checks.attention_sites g in
      ignore (optimize (full env.Std_ops.sg) g);
      ok m.Zoo.mname (Checks.op_count ~label:"FMHA" Std_ops.fmha ~expected:sites g))
    (Zoo.hf ())

(* The serve pool: bases differ in size for every seed, and each variant
   shares its base's structure, so a type-blind cache key cannot tell
   them apart. *)
let test_pool () =
  let env = Std_ops.make () in
  List.iter
    (fun seed ->
      let pool = Inputs.serve_pool ~seed in
      let graphs = Array.map (fun (e : Inputs.entry) -> Transformer.build env e.Inputs.cfg) pool in
      let sizes = ref [] in
      Array.iteri
        (fun i (e : Inputs.entry) ->
          match e.Inputs.variant_of with
          | None -> sizes := Graph.live_count graphs.(i) :: !sizes
          | Some b ->
              Alcotest.(check string) "variant shares its base's fingerprint"
                (Fuzz.fingerprint graphs.(b)) (Fuzz.fingerprint graphs.(i)))
        pool;
      Alcotest.(check int) "distinct base sizes" (List.length !sizes)
        (List.length (List.sort_uniq compare !sizes)))
    [ 1; 2; 3 ]

let test_stream () =
  let pool = Inputs.serve_pool ~seed:1 in
  List.iter
    (fun round ->
      let s = Inputs.serve_stream ~seed:1 ~round pool in
      Array.iteri
        (fun i (e : Inputs.entry) ->
          let sends = Array.fold_left (fun a j -> if j = i then a + 1 else a) 0 s in
          Alcotest.(check int) "sends per round" Inputs.sends_per_round sends;
          match e.Inputs.variant_of with
          | Some b ->
              let first x =
                let rec go k = if s.(k) = x then k else go (k + 1) in
                go 0
              in
              Alcotest.(check bool) "base sent first" true (first b < first i)
          | None -> ())
        pool)
    [ 0; 1; 2; 3 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "response with another graph's types" `Quick test_response_types;
          Alcotest.test_case "chain with one unfused link" `Quick test_fire_chain;
          Alcotest.test_case "stack missing one FMHA" `Quick test_stack;
          Alcotest.test_case "cost above the reference" `Quick test_cost;
          Alcotest.test_case "scan chain changed" `Quick test_scan_chain;
          Alcotest.test_case "zoo attention sites" `Quick test_zoo_attention_sites;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "serve pool" `Quick test_pool;
          Alcotest.test_case "serve stream" `Quick test_stream;
        ] );
    ]
