(* The built-in [full] pattern set, set up and run in process. *)

open Pypm

let config engine = { Pypm_api.Config.default with engine = Some engine }

(* What [setup_s] times for the in-process workloads: a fresh operator
   environment, the full program, its lint, and the prepared engine. *)
let setup engine () =
  let env = Std_ops.make () in
  let prog = Corpus.full_program env.Std_ops.sg in
  let diags = Span.with_ ~cat:"Analysis" "Pypm_api.lint" (fun () -> Pypm_api.lint prog) in
  if Analysis.errors diags <> [] then failwith "the full program has lint errors";
  let prepared =
    Span.with_ ~cat:"Pypm_api" "Pypm_api.prepare" (fun () ->
        Pypm_api.prepare ~config:(config engine) prog)
  in
  (prog, prepared)

(* Events per operation: an [Obs] sink counting what the program emits
   during traced operations. *)
let events = ref 0

(* One timed operation: the pass over [g] and its wall time. The major
   heap is collected first, outside the timed region, so the peak RSS
   depends on the operation and not on how long the run has gone on. *)
let optimize ~traced engine prepared g =
  Gc.full_major ();
  let call () =
    Span.with_ ~cat:"Pypm_api" "Pypm_api.run" (fun () ->
        Pypm_api.run ~config:(config engine) prepared g)
  in
  let t0 = Report.now () in
  let stats = if traced then Obs.with_sink (fun _ -> incr events) call else call () in
  (stats, Report.now () -. t0)
