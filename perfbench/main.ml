(* The benchmark executable: one workload, one seed, one run.

   main.exe --workload zoo|deep|serve --seed N --seconds S --trace 0|1
            [--pypmc PATH] [--work-dir DIR]

   Prints a human-readable report, then the result as one JSON line. A
   traced run also writes its spans as Chrome trace-event JSON to
   DIR/<workload>.trace.json. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let pypmc = ref "_build/default/bin/pypmc.exe" and work_dir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "zoo|deep|serve");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 record layer spans");
      ("--pypmc", Arg.Set_string pypmc, "PATH the pypmc executable (serve)");
      ("--work-dir", Arg.Set_string work_dir, "DIR for sockets and the span file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload zoo|deep|serve --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  let result =
    match !workload with
    | "zoo" -> Perfbench.Zoo_workload.run ~seed ~seconds ~traced
    | "deep" -> Perfbench.Deep_workload.run ~seed ~seconds ~traced
    | "serve" ->
        Perfbench.Serve_workload.run ~pypmc:!pypmc ~work_dir:!work_dir ~seed ~seconds ~traced
    | w ->
        prerr_endline ("unknown workload " ^ w ^ " (zoo|deep|serve)");
        exit 2
  in
  if traced then begin
    let path = Filename.concat !work_dir (!workload ^ ".trace.json") in
    Perfbench.Span.write_chrome path;
    Printf.printf "spans: %d written to %s\n" (List.length (Perfbench.Span.spans ())) path
  end;
  Perfbench.Report.print ~traced result
