(* Whole rounds of a workload's operations for a wall-clock budget. *)

(* [run ~seconds ~first f] calls [f round] for rounds [first], [first+1],
   ... until [seconds] have passed since the first call began; at least one
   round always runs, and a round is never cut short. Returns each round's
   result, in order. *)
let run ~seconds ~first f =
  let t0 = Report.now () in
  let rec go r acc =
    let acc = f r :: acc in
    if Report.now () -. t0 < seconds then go (r + 1) acc else List.rev acc
  in
  go first []

(* Untraced runs measure for [seconds]. Traced runs measure the first half
   untraced and the second half traced, and compare the two. [f ~traced r]
   returns round [r]'s timed seconds; the result is the untraced rounds'
   and the traced rounds' timed seconds. *)
let split ~traced ~seconds f =
  if not traced then (run ~seconds ~first:0 (f ~traced:false), [])
  else begin
    let untraced = run ~seconds:(seconds /. 2.) ~first:0 (f ~traced:false) in
    Span.set_recording true;
    let traced = run ~seconds:(seconds /. 2.) ~first:(List.length untraced) (f ~traced:true) in
    Span.set_recording false;
    (untraced, traced)
  end

let overhead_pct (untraced, traced) =
  (Summary.median traced /. Summary.median untraced -. 1.) *. 100.
