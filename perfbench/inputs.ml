(* Workload inputs. Every generator is a pure function of the workload
   seed (and of fixed constants), so a seed names one input set. *)

open Pypm

(* --- zoo ---------------------------------------------------------- *)

(* Every [Zoo.all] model, in a seeded order per sweep. The models
   themselves are fixed; the seed only permutes the sweep order. *)
let zoo_models () = Array.of_list (Zoo.all ())

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- deep --------------------------------------------------------- *)

let f32 shape = Ty.make Dtype.F32 shape

(* [links] x {MatMul(x, Trans(w)) -> Relu}: four nodes per link plus
   the chain input. The full program's MMxyT rule fires once per link
   and nothing else fires. Feature widths are a seeded permutation of a
   fixed multiset (64, 128 and 256 in equal shares), so the cost of the
   chain barely moves with the seed. *)
let fire_chain_links = 600

let fire_chain ?(links = fire_chain_links) ~seed () =
  let rng = Rng.create ~seed in
  let env = Std_ops.make () in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let widths =
    shuffle rng (Array.init (links + 1) (fun i -> [| 64; 128; 256 |].(i mod 3)))
  in
  let x = ref (Graph.input g ~name:"x" (f32 [ 16; widths.(0) ])) in
  for i = 1 to links do
    let w = Graph.input g ~name:(Printf.sprintf "w%d" i) (f32 [ widths.(i); widths.(i - 1) ]) in
    let t = Graph.add g Std_ops.trans [ w ] in
    let m = Graph.add g Std_ops.matmul [ !x; t ] in
    x := Graph.add g Std_ops.relu [ m ]
  done;
  Graph.set_outputs g [ !x ];
  g

(* A chain of unary ops, no two neighbours alike, drawn from ops no
   pattern of the full program rewrites: nothing fires. *)
let scan_chain_nodes = 20_000

let scan_ops = [| Std_ops.tanh_; Std_ops.sigmoid; Std_ops.exp_; Std_ops.erf |]

let scan_chain ~seed =
  let rng = Rng.create ~seed:(seed + 1) in
  let env = Std_ops.make () in
  let g = Graph.create ~sg:env.Std_ops.sg ~infer:env.Std_ops.infer () in
  let x = ref (Graph.input g ~name:"x" (f32 [ 4; Rng.pick rng [ 64; 256; 1024 ] ])) in
  let last = ref (-1) in
  for _ = 1 to scan_chain_nodes do
    let k = (!last + 1 + Rng.int rng (Array.length scan_ops - 1)) mod Array.length scan_ops in
    let k = if !last < 0 then Rng.int rng (Array.length scan_ops) else k in
    last := k;
    x := Graph.add g scan_ops.(k) [ !x ]
  done;
  Graph.set_outputs g [ !x ];
  g

(* A 96-layer pre-LN transformer (3,651 nodes); the seed drives only the
   argument-order jitter, so the size is the same for every seed. *)
let stack_config ~seed =
  Transformer.config ~layers:96 ~heads:4 ~seed:(1000 + seed) "stack-96"

let stack ~seed =
  let env = Std_ops.make () in
  Transformer.build env (stack_config ~seed)

(* --- serve -------------------------------------------------------- *)

type entry = {
  cfg : Transformer.config;
  variant_of : int option;  (** index of the base this is a shape variant of *)
}

(* One base per layer count, so bases never share a structure: their
   node counts differ. Slots from 12 layers up use multi-head attention. *)
let serve_layers = [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 14; 16; 18; 20; 22; 24 |]

(* Two bases fixed for every seed, each with a shape variant (other batch
   and sequence length, same structure). *)
let fixed_bases =
  [
    Transformer.config ~layers:1 ~hidden:64 ~seq:16 ~batch:1 ~seed:7001 "fixed-1";
    Transformer.config ~layers:6 ~hidden:384 ~seq:128 ~batch:4
      ~activation:(Transformer.Act_gelu Transformer.Mul_half) ~seed:7006 "fixed-6";
  ]

let shape_variant (c : Transformer.config) =
  { c with Transformer.name = c.Transformer.name ^ "-variant"; seq = 2 * c.seq; batch = 2 * c.batch }

(* Shapes (hidden, seq, batch) for the seeded slots, in the range of the
   HF zoo's; the seed permutes them over the slots, so the pool's make-up
   is the same for every seed. *)
let serve_shapes =
  [|
    (128, 128, 8); (256, 128, 8); (512, 128, 8); (512, 128, 4); (768, 128, 8);
    (1024, 128, 4); (192, 256, 4); (256, 256, 4); (768, 256, 2); (1024, 256, 1);
    (512, 512, 2); (768, 512, 1); (384, 1024, 1); (384, 32, 1); (512, 64, 1);
    (1024, 64, 8);
  |]

let serve_pool ~seed =
  let rng = Rng.create ~seed:(seed + 2) in
  let shapes = ref (Array.to_list (shuffle rng serve_shapes)) in
  let base layers =
    match List.find_opt (fun c -> c.Transformer.layers = layers) fixed_bases with
    | Some c -> c
    | None ->
        let hidden, seq, batch = List.hd !shapes in
        shapes := List.tl !shapes;
        Transformer.config ~layers ~hidden
          ~heads:(if layers >= 12 then hidden / 64 else 1)
          ~seq ~batch
          ~activation:
            (Transformer.Act_gelu
               (if Rng.bool rng then Transformer.Div_two else Transformer.Mul_half))
          ~seed:(Rng.int rng 1_000_000)
          (Printf.sprintf "pool-%d" layers)
  in
  let bases = Array.map (fun l -> { cfg = base l; variant_of = None }) serve_layers in
  let variants = ref [] in
  Array.iteri
    (fun i e ->
      if List.memq e.cfg fixed_bases then
        variants := { cfg = shape_variant e.cfg; variant_of = Some i } :: !variants)
    bases;
  Array.append bases (Array.of_list (List.rev !variants))

(* Sends of each pool entry per round: one first send, then repeats. *)
let sends_per_round = 4

(* A round's request stream: every entry [sends_per_round] times in a
   seeded order, with each variant first sent after its base. *)
let serve_stream ~seed ~round pool =
  let rng = Rng.create ~seed:((seed * 104_729) + round) in
  let s =
    shuffle rng
      (Array.concat (List.init sends_per_round (fun _ -> Array.init (Array.length pool) Fun.id)))
  in
  let first i =
    let rec go k = if s.(k) = i then k else go (k + 1) in
    go 0
  in
  Array.iteri
    (fun v e ->
      match e.variant_of with
      | Some b ->
          let fv = first v and fb = first b in
          if fv < fb then begin
            s.(fv) <- b;
            s.(fb) <- v
          end
      | None -> ())
    pool;
  s

(* The request for one pool graph in round [round]. Each round runs under
   its own option block, hence its own cache keys: every round has the
   same make-up of first sends and repeats. *)
let serve_request ~id ~round graph =
  Protocol.Optimize
    {
      id;
      program = Protocol.Named "full";
      options =
        { Protocol.default_options with Protocol.engine = "plan"; max_rewrites = 10_000 + round };
      graph;
    }
