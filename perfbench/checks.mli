(** Output checks, computed apart from the optimizer's own bookkeeping:
    each compares an output with a property of its input or with an
    independent computation (a reference engine, a count of attention
    sites, the request's own types). [Error reason] marks the operation
    failed. *)

open Pypm

type verdict = (unit, string) result

(** The first error of a list of checks, or [Ok ()]. *)
val all : verdict list -> verdict

val output_types : Graph.t -> Ty.t option list

(** The graph's outputs still have the types they had before the pass. *)
val same_types : before:Ty.t option list -> Graph.t -> verdict

(** A result cost is no higher than the reference engine's (relative
    tolerance 1e-9 for summation order). *)
val cost_at_most : reference:float -> float -> verdict

(** [Graph.validate] finds nothing. *)
val valid : Graph.t -> verdict

(** Attention sites of an input graph: its [Softmax] nodes (every
    attention block has exactly one). *)
val attention_sites : Graph.t -> int

(** [op_count ~label op ~expected g]: live nodes with operator [op]. *)
val op_count : label:string -> Symbol.t -> expected:int -> Graph.t -> verdict

(** The fire chain: [links] rewrites, [links] [cublasMM_xyT_f32] nodes, no
    [MatMul] or [Trans] left. *)
val fire_chain : links:int -> rewrites:int -> Graph.t -> verdict

(** The scan chain: no rewrite, and the structural fingerprint unchanged. *)
val scan_chain : rewrites:int -> before:string -> after:string -> verdict

(** A serve result body: it decodes, and its graph has the request's
    output types and [expected_fmha] [FMHA] nodes. On success, the decoded
    result graph (for the cost model). *)
val result_graph :
  env:Std_ops.env ->
  request_types:Ty.t option list ->
  expected_fmha:int ->
  string ->
  (Graph.t, string) result

(** The cache-key fault's exact symptom on a shape variant's request: a
    cached answer whose result graph carries the base's output types
    ([base_types]) and [expected_fmha] [FMHA] nodes. *)
val base_answer :
  env:Std_ops.env ->
  base_types:Ty.t option list ->
  expected_fmha:int ->
  cached:bool ->
  string ->
  bool

(** The response's [cached] flag is what the request stream expects. *)
val cached_flag : expected:bool -> bool -> verdict

(** The constructor of a response, with its reason if it carries one. *)
val response_kind : Protocol.response -> string
