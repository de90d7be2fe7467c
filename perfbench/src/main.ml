(* The benchmark binary: one process runs one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --workload W --seed N --setup-only
     main.exe --workload W --seed N --digests

   Untraced ([--trace 0]): set up, run a warm-up pass, then run the
   workload's cells round robin until [S] seconds have passed (at least
   one whole pass), check every result, and print the end-to-end
   metrics. [setup_s] is left to the caller, which times whole
   [--setup-only] processes.

   Traced ([--trace 1]): a warm-up and one untraced pass, then set-up and
   one pass under spans and counters, then the layer microbenchmarks;
   prints the per-layer metrics. Counts come from exactly one pass, so
   they repeat exactly per seed.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

open Perfbench
module W = Workload
module Parallel = Asf_parallel.Parallel

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (r : Runner.t) metrics =
  Printf.printf "failed_share %s share (%d of %d operations; %d requests shed or timed out)\n"
    (num (Runner.failed_share r)) r.Runner.failed r.Runner.attempted r.Runner.unserved;
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (Runner.correct r) r.Runner.attempted r.Runner.failed m

let untraced ~refs ~seconds ~seed (w : W.t) =
  let r = Runner.create ~refs (w.W.setup ~seed) in
  let heap = Runner.warm_up r in
  Runner.timed ~seconds r;
  Runner.report r;
  Printf.printf "unscaled sim_cycles_per_s %s; calibration kernel %.3f ms (reference %.3f ms)\n"
    (num (Runner.raw_rate r))
    (Runner.kernel_median_s r *. 1e3)
    (Runner.reference_kernel_s *. 1e3);
  let values =
    [
      ("sim_cycles_per_s", Runner.rate r);
      ("peak_heap_mb", heap /. 1048576.);
      ("served_share", Runner.served_share r);
    ]
  in
  print_result r (List.map (fun (k, unit) -> (k, List.assoc k values, unit)) Layers.end_to_end)

let traced ~refs ~seed ~spans_out (w : W.t) =
  (* An untraced pass first, to price the tracing. *)
  let plain = Runner.create ~refs (w.W.setup ~seed) in
  ignore (Runner.warm_up plain);
  Runner.pass plain;
  Span.start ();
  let r = Runner.create ~refs (Span.with_ "setup" (fun () -> w.W.setup ~seed)) in
  Span.poll ();
  let pause0 = Span.gc_pause_s () in
  Span.with_ "pass" (fun () -> Runner.pass r);
  Span.stop ();
  let gc_pause_s = Span.gc_pause_s () -. pause0 in
  let spans = Span.all () in
  Option.iter (fun path -> Span.write_csv path spans) spans_out;
  Runner.report r;
  let v = Layers.values ~r ~spans ~gc_pause_s in
  Hashtbl.replace v "trace.overhead" (Runner.rate plain /. Runner.rate r);
  List.iter (fun (k, x) -> Hashtbl.replace v k x) (Micro.all ());
  Runner.absorb r plain;
  if w.W.wname = "repro-pool" then begin
    (* The same cells at one job, against the pool's untraced pass. *)
    let one = Runner.create ~refs (w.W.setup ~seed) in
    Parallel.set_jobs 1;
    ignore (Runner.warm_up one);
    Runner.pass one;
    Hashtbl.replace v "parallel.speedup" (Runner.last_pass_s one /. Runner.last_pass_s plain);
    Runner.absorb r one
  end;
  print_result r
    (List.map
       (fun (k, unit) -> (k, Option.value ~default:0. (Hashtbl.find_opt v k), unit))
       Layers.all)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false and digests = ref false in
  let refs_dir = ref "perfbench/refs" and spans_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run when 1");
      ("--setup-only", Arg.Set setup_only, " set up, then exit");
      ("--digests", Arg.Set digests, " run one pass and print the cell digests");
      ("--refs", Arg.Set_string refs_dir, "DIR reference digests");
      ("--spans", Arg.String (fun s -> spans_out := Some s), "FILE span CSV (traced run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match W.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (valid: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.W.wname) W.all));
      exit 2
  | Some w when !setup_only ->
      ignore (w.W.setup ~seed:!seed);
      (* The host speed right after set-up, for run.py to rescale this
         process's wall time to the reference speed, as [Runner.rate]
         rescales cell times. The kernel runs as it does before a cell:
         on a collected heap, after a few unmeasured rounds. The second
         figure is the time this calibration took, which run.py takes off
         the wall time. *)
      let t0 = Span.now () in
      Gc.full_major ();
      let ks = List.init 8 (fun _ -> Runner.kernel ()) in
      let kernel = Micro.median (List.filteri (fun i _ -> i >= 3) ks) in
      Printf.printf "calibration %s %s %s\n" (num kernel) (num (Span.now () -. t0))
        (num Runner.reference_kernel_s)
  | Some w when !digests ->
      let r = Runner.create (w.W.setup ~seed:!seed) in
      Runner.pass r;
      List.iter2
        (fun c o -> Printf.printf "%d %s %s\n" !seed c.W.name o.W.digest)
        (Array.to_list r.Runner.cells) (Runner.outcomes r)
  | Some w ->
      let refs = Runner.load_refs ~dir:!refs_dir ~workload:!workload ~seed:!seed in
      if Hashtbl.length refs = 0 then
        Printf.eprintf "no reference digests for seed %d\n%!" !seed;
      if !trace = 1 then traced ~refs ~seed:!seed ~spans_out:!spans_out w
      else untraced ~refs ~seconds:!seconds ~seed:!seed w
