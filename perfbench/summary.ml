(* Order statistics over samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile of a fixed ladder with at least ten samples
   above it ([Load.percentile], the serve load harness's nearest rank):
   [Some (p, value)], or [None] under forty samples (too few for any
   percentile past the median to be a tail). *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 40 then None
  else
    let ladder = [ 99.9; 99.; 98.; 95.; 90.; 75. ] in
    let at p = (p, Pypm.Load.percentile a p) in
    let above (_, v) = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
    List.find_opt (fun t -> above t >= 10) (List.map at ladder)

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.
