(* The per-layer metrics of the traced run, each with its unit, and how
   they are read off one traced pass: simulated counts from the cells'
   outcomes, host times from the spans, GC work from [Gc] and the
   runtime's event ring. *)

module W = Workload
module Stats = Asf_tm_rt.Stats
module Abort = Asf_core.Abort
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin

(* The end-to-end metrics the untraced run emits. [setup_s] is the fourth:
   run.py measures it around whole set-up processes. *)
let end_to_end = [ ("sim_cycles_per_s", "1/s"); ("peak_heap_mb", "MB"); ("served_share", "share") ]

let cell_names =
  List.map Asf_stamp.Stamp.name Asf_stamp.Stamp.all
  @ List.map Asf_intset.Intset.structure_name
      Asf_intset.Intset.[ Linked_list; Skip_list; Rb_tree; Hash_set ]
  @ [ "kv-a"; "kv-e"; "ledger" ]

let modes = [ "llb8"; "llb256"; "stm"; "seq"; "phased" ]

(* Every per-layer metric, in emission order. A workload that does not
   exercise a layer reports 0 for it. *)
let all =
  [
    ("engine.fused", "count"); ("engine.scheduled", "count");
    ("engine.fused_ratio", "share"); ("engine.pqueue_ns.d8", "ns");
    ("engine.pqueue_ns.d256", "ns"); ("cache.probes", "count");
    ("cache.invalidations", "count"); ("cache.forwards", "count");
    ("cache.cross_socket_probes", "count"); ("cache.dir_high_water", "lines");
    ("cache.access_ns.8c", "ns"); ("cache.access_ns.256c", "ns");
    ("cache.sharers_ns.bitmask", "ns"); ("cache.sharers_ns.limited", "ns");
    ("tm.commits", "count"); ("tm.attempts", "count");
    ("tm.commit_ratio", "share"); ("tm.serial_commits", "count");
    ("tm.abort_waste_share", "share");
  ]
  @ List.init Abort.n_classes (fun i -> ("tm.aborts." ^ Abort.class_name i, "count"))
  @ [ ("core.llb_ns", "ns"); ("tm.atomic_asf_ns", "ns"); ("tm.atomic_stm_ns", "ns") ]
  @ List.map (fun c -> ("cell." ^ c ^ ".host_s", "s")) cell_names
  @ List.map (fun m -> ("mode." ^ m ^ ".host_s", "s")) modes
  @ [
      ("serve.capacity_s", "s"); ("serve.run_s", "s"); ("serve.arrivals", "count");
      ("serve.completed", "count"); ("serve.shed", "count");
      ("serve.timeout", "count"); ("serve.retries", "count");
      ("serve.p99_cycles", "cycles"); ("txlin.check_s", "s");
      ("txlin.states", "count"); ("txlin.ns_per_state", "ns");
    ]
  @ List.map (fun e -> ("harness." ^ e ^ ".host_s", "s")) W.repro_experiments
  @ [
      ("parallel.speedup", "ratio"); ("setup.tm_create_s", "s");
      ("gc.minor_words", "words"); ("gc.major_words", "words");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.pause_s", "s"); ("trace.overhead", "ratio");
      ("trace.lost_events", "count"); ("trace.bench_self_s", "s");
    ]

(* Values read off one traced pass [r] whose spans are [spans]. GC figures
   sum the cells' spans, which leave out the benchmark's own collections
   between cells; [gc_pause_s] is the pause time over the pass. *)
let values ~(r : Runner.t) ~spans ~gc_pause_s =
  let v = Hashtbl.create 128 in
  let set k x = Hashtbl.replace v k x in
  let get k = Option.value ~default:0. (Hashtbl.find_opt v k) in
  let add k x = set k (get k +. x) in
  let fi = float_of_int in
  let os = Runner.outcomes r in
  let sum f = List.fold_left (fun a o -> a +. fi (f o)) 0. os in
  let fused = sum (fun o -> o.W.fused) and sched = sum (fun o -> o.W.scheduled) in
  set "engine.fused" fused;
  set "engine.scheduled" sched;
  set "engine.fused_ratio" (fused /. Float.max 1. (fused +. sched));
  List.iteri
    (fun i k -> set k (sum (fun o -> o.W.coherence.(i))))
    [ "cache.invalidations"; "cache.forwards"; "cache.cross_socket_probes"; "cache.probes" ];
  set "cache.dir_high_water"
    (List.fold_left (fun a o -> Float.max a (fi o.W.coherence.(4))) 0. os);
  let st = Stats.create () in
  List.iter (fun o -> Option.iter (fun s -> Stats.add s ~into:st) o.W.stats) os;
  let attempts = fi (Stats.attempts st) in
  set "tm.commits" (fi (Stats.commits st));
  set "tm.attempts" attempts;
  set "tm.commit_ratio" (fi (Stats.commits st) /. Float.max 1. attempts);
  set "tm.serial_commits" (fi (Stats.serial_commits st));
  let cyc = Stats.cycles st in
  set "tm.abort_waste_share"
    (fi cyc.(Stats.cat_abort_waste) /. Float.max 1. (fi (Array.fold_left ( + ) 0 cyc)));
  Array.iteri (fun i n -> set ("tm.aborts." ^ Abort.class_name i) (fi n)) (Stats.aborts st);
  Array.iteri
    (fun k c -> List.iter (fun tag -> add (tag ^ ".host_s") (List.hd r.Runner.times.(k))) c.W.tags)
    r.Runner.cells;
  List.iter
    (fun o ->
      Option.iter
        (fun (s : Serve.result) ->
          add "serve.arrivals" (fi s.r_arrivals);
          add "serve.completed" (fi s.r_completed);
          add "serve.shed" (fi s.r_shed);
          add "serve.timeout" (fi s.r_timeout);
          add "serve.retries" (fi s.r_retries);
          set "serve.p99_cycles" (Float.max (get "serve.p99_cycles") (fi s.r_p99)))
        o.W.serve;
      Option.iter (fun (vd : Txlin.verdict) -> add "txlin.states" (fi vd.v_states)) o.W.verdict)
    os;
  let totals = Span.totals spans in
  let span_s name = match Hashtbl.find_opt totals name with Some (t, _) -> t | None -> 0. in
  let self_s name = match Hashtbl.find_opt totals name with Some (_, s) -> s | None -> 0. in
  set "serve.capacity_s" (span_s "Serve.measure_capacity");
  set "serve.run_s" (span_s "Serve.run");
  set "txlin.check_s" (span_s "Txlin.check_result");
  if get "txlin.states" > 0. then
    set "txlin.ns_per_state" (get "txlin.check_s" *. 1e9 /. get "txlin.states");
  set "setup.tm_create_s" (span_s "Tm.create");
  let cell_spans =
    List.filter (fun s -> Array.exists (fun c -> c.W.name = s.Span.name) r.Runner.cells) spans
  in
  let gsum f = List.fold_left (fun a s -> a +. f s) 0. cell_spans in
  set "gc.minor_words" (gsum (fun s -> s.Span.minor_words));
  set "gc.major_words" (gsum (fun s -> s.Span.major_words));
  set "gc.minor_collections" (gsum (fun s -> fi s.Span.minor_collections));
  set "gc.major_collections" (gsum (fun s -> fi s.Span.major_collections));
  set "gc.pause_s" gc_pause_s;
  set "trace.lost_events" (fi !Span.lost_events);
  (* The benchmark's own spans are the set-up and pass roots and the
     cells; their self time is host time spent outside library calls. *)
  set "trace.bench_self_s"
    (List.fold_left
       (fun a n -> a +. self_s n)
       0.
       ("setup" :: "pass" :: Array.to_list (Array.map (fun c -> c.W.name) r.Runner.cells)));
  v
