open Pypm

type verdict = (unit, string) result

let all vs = List.fold_left (fun acc v -> match acc with Ok () -> v | e -> e) (Ok ()) vs
let output_types g = List.map (fun (n : Graph.node) -> n.Graph.ty) (Graph.outputs g)

let show_types ts =
  "["
  ^ String.concat ", "
      (List.map (function Some t -> Ty.to_string t | None -> "opaque") ts)
  ^ "]"

let types_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Some x, Some y -> Ty.equal x y
         | None, None -> true
         | _ -> false)
       a b

let same_types ~before g =
  let after = output_types g in
  if types_equal before after then Ok ()
  else
    Error
      (Printf.sprintf "output types %s, expected %s" (show_types after)
         (show_types before))

let cost_at_most ~reference cost =
  if cost <= reference *. (1. +. 1e-9) then Ok ()
  else
    Error
      (Printf.sprintf "cost %.6g s above the reference engine's %.6g s" cost
         reference)

let valid g =
  match Graph.validate g with
  | [] -> Ok ()
  | e :: rest ->
      Error (Printf.sprintf "invalid graph (%d violations): %s" (1 + List.length rest) e)

let attention_sites g = Graph.count_op g Std_ops.softmax

let op_count ~label op ~expected g =
  let n = Graph.count_op g op in
  if n = expected then Ok ()
  else Error (Printf.sprintf "%d %s node(s), expected %d" n label expected)

let fire_chain ~links ~rewrites g =
  all
    [
      (if rewrites = links then Ok ()
       else Error (Printf.sprintf "%d rewrites, expected %d" rewrites links));
      op_count ~label:"cublasMM_xyT_f32" Std_ops.cublas_mm_xyt_f32 ~expected:links g;
      op_count ~label:"MatMul" Std_ops.matmul ~expected:0 g;
      op_count ~label:"Trans" Std_ops.trans ~expected:0 g;
    ]

let scan_chain ~rewrites ~before ~after =
  all
    [
      (if rewrites = 0 then Ok ()
       else Error (Printf.sprintf "%d rewrites on a chain nothing matches" rewrites));
      (if String.equal before after then Ok ()
       else Error "fingerprint changed on a chain nothing matches");
    ]

let result_graph ~env ~request_types ~expected_fmha body =
  match
    Span.with_ ~cat:"Protocol" "Protocol.decode_outcome" (fun () ->
        Protocol.decode_outcome body)
  with
  | Error e -> Error ("outcome: " ^ e)
  | Ok o -> (
      let sg = Signature.copy env.Std_ops.sg in
      match
        Span.with_ ~cat:"Codec.Graphs" "Codec.Graphs.decode_into" (fun () ->
            Codec.Graphs.decode_into ~sg ~infer:env.Std_ops.infer
              o.Protocol.graph)
      with
      | Error e -> Error ("result graph: " ^ e)
      | Ok g -> (
          match
            all
              [
                same_types ~before:request_types g;
                op_count ~label:"FMHA" Std_ops.fmha ~expected:expected_fmha g;
              ]
          with
          | Ok () -> Ok g
          | Error e -> Error e))

let base_answer ~env ~base_types ~expected_fmha ~cached body =
  cached && Result.is_ok (result_graph ~env ~request_types:base_types ~expected_fmha body)

let cached_flag ~expected got =
  if got = expected then Ok ()
  else Error (Printf.sprintf "cached=%b, expected %b" got expected)

let response_kind = function
  | Protocol.Result _ -> "Result"
  | Protocol.Stats_report _ -> "Stats_report"
  | Protocol.Overloaded _ -> "Overloaded"
  | Protocol.Bad_request { reason; _ } -> "Bad_request: " ^ reason
  | Protocol.Server_error { reason; _ } -> "Server_error: " ^ reason
  | Protocol.Deadline_exceeded _ -> "Deadline_exceeded"
  | Protocol.Draining _ -> "Draining"
  | Protocol.Worker_crashed { reason; _ } -> "Worker_crashed: " ^ reason
  | Protocol.Health_report _ -> "Health_report"
