(* The benchmark's workloads: each is a set-up step that returns a closed
   batch of cells, and a cell is one call into a library's public entry
   point ([Stamp.run_scaled], [Intset.run], [Serve.run] with
   [Txlin.check_result], or an experiment's [run]) that returns the
   simulated result, its digest and its layer counters.

   Why each workload exists:
   - paper-8c: the paper's own traffic (STAMP x {LLB-8, LLB-256, TinySTM},
     IntegerSet x {LLB-256, TinySTM}, one sequential and one PhasedTM
     cell) on 8 cores, where the TM, ASF, STM and cache hot paths do the
     work on the exact bitmask directory with few queued tasks;
   - serve-lin: the only workload through lib/serve's admission,
     deadline and governor paths and through the Txlin oracle;
   - scale-256c: the only workload on the limited-pointer directory, the
     sharded directory, cross-socket probes and the calendar queue;
   - repro-pool: the only workload through the lib/parallel domain pool,
     on experiment cell sets small enough for dispatch cost to matter. *)

module Engine = Asf_engine.Engine
module Params = Asf_machine.Params
module Variant = Asf_core.Variant
module Hierarchy = Asf_cache.Hierarchy
module Tm = Asf_tm_rt.Tm
module Stats = Asf_tm_rt.Stats
module Stamp = Asf_stamp.Stamp
module C = Asf_stamp.Stamp_common
module Intset = Asf_intset.Intset
module Serve = Asf_serve.Serve
module Txlin = Asf_txlin.Txlin
module Experiments = Asf_harness.Experiments
module Report = Asf_harness.Report
module Parallel = Asf_parallel.Parallel

type outcome = {
  cycles : int;  (** simulated cycles retired, summed over cores *)
  attempted : int;  (** operations: 1 per cell, or requests, or reports *)
  failed : int;  (** operations whose self-check failed *)
  unserved : int;  (** requests shed or timed out by design; 0 for cells *)
  digest : string;  (** of the simulated result only *)
  stats : Stats.t option;  (** TM statistics, summed over threads *)
  serve : Serve.result option;  (** without its history, which is not kept *)
  verdict : Txlin.verdict option;
  fused : int;
  scheduled : int;
  coherence : int array;
      (** invalidations, forwards, cross-socket probes, probes,
          directory high-water *)
}

type cell = {
  name : string;  (** unique within the workload, no spaces *)
  tags : string list;  (** per-layer host-time metrics this cell adds to *)
  run : unit -> outcome;
}

type t = {
  wname : string;
  setup : seed:int -> cell list;
      (** everything before the first timed cell: inputs, one [Tm.create]
          per (mode, topology), capacity probes *)
}

(* ------------------------------------------------------------------ *)
(* Digests and counters                                                 *)
(* ------------------------------------------------------------------ *)

let digest parts =
  String.sub (Digest.to_hex (Digest.string (String.concat ";" parts))) 0 16

let ints xs = List.map string_of_int xs

let stats_parts s =
  ints
    ([ Stats.commits s; Stats.serial_commits s; Stats.attempts s ]
    @ Array.to_list (Stats.aborts s)
    @ Array.to_list (Stats.cycles s))

(* [probes] is left out: it counts probe visits, which depend on the
   sharer-set representation rather than on the simulated machine. *)
let coherence_parts c = ints [ c.(0); c.(1); c.(2); c.(4) ]

type counters = {
  k_cycles : int;
  k_fused : int;
  k_scheduled : int;
  k_coherence : int array;
}

(* Counter deltas on the calling domain around [f]. *)
let counted f =
  let c0 = Engine.cycles_retired () in
  let f0, s0 = Engine.sched_counters () in
  let h0 = Hierarchy.domain_coherence () in
  Hierarchy.set_domain_dir_high_water 0;
  let v = f () in
  let f1, s1 = Engine.sched_counters () in
  let h1 = Hierarchy.domain_coherence () in
  ( v,
    {
      k_cycles = Engine.cycles_retired () - c0;
      k_fused = f1 - f0;
      k_scheduled = s1 - s0;
      k_coherence = Array.init 5 (fun i -> if i = 4 then h1.(4) else h1.(i) - h0.(i));
    } )

let outcome k ~attempted ~failed ?(unserved = 0) ~parts ?stats ?serve ?verdict () =
  {
    cycles = k.k_cycles;
    attempted;
    failed;
    unserved;
    digest = digest ((string_of_int k.k_cycles :: parts) @ coherence_parts k.k_coherence);
    stats;
    serve;
    verdict;
    fused = k.k_fused;
    scheduled = k.k_scheduled;
    coherence = k.k_coherence;
  }

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)
(* ------------------------------------------------------------------ *)

let tm_config mode ~threads ~seed ~params =
  { (Tm.default_config mode ~n_cores:threads) with Tm.seed; params }

(* Execution modes with the names their host-time metrics carry. *)
let llb8 = ("llb8", Tm.Asf_mode Variant.llb8)

let llb256 = ("llb256", Tm.Asf_mode Variant.llb256)

let stm = ("stm", Tm.Stm_mode)

let seq = ("seq", Tm.Seq_mode)

let phased = ("phased", Tm.Phased_mode Variant.llb8)

(* Set-up's share of lazy initialisation: one system per (mode,
   topology), so nothing the first timed cell touches is still cold. *)
let create_systems ~params ~threads modes =
  List.iter
    (fun (_, mode) ->
      ignore
        (Span.with_ "Tm.create" (fun () ->
             Tm.create (tm_config mode ~threads ~seed:0 ~params))))
    modes

let stamp_cell ~seed ~params ~threads ~scale app (mname, mode) =
  let app_name = Stamp.name app in
  {
    name = Printf.sprintf "%s/%s/%dt" app_name mname threads;
    tags = [ "cell." ^ app_name; "mode." ^ mname ];
    run =
      (fun () ->
        let cfg = tm_config mode ~threads ~seed ~params in
        let r, k =
          counted (fun () ->
              Span.with_ "Stamp.run_scaled" (fun () ->
                  Stamp.run_scaled app ~scale cfg ~threads))
        in
        outcome k ~attempted:1
          ~failed:(if C.ok r then 0 else 1)
          ~parts:(string_of_int r.C.cycles :: stats_parts r.C.stats)
          ~stats:r.C.stats ());
  }

let intset_cell ~seed ~params ~threads (structure, range, update_pct, txns)
    (mname, mode) =
  let sname = Intset.structure_name structure in
  {
    name = Printf.sprintf "%s-r%d-u%d/%s/%dt" sname range update_pct mname threads;
    tags = [ "cell." ^ sname; "mode." ^ mname ];
    run =
      (fun () ->
        let cfg = tm_config mode ~threads ~seed ~params in
        let icfg =
          {
            (Intset.default_cfg structure) with
            Intset.range;
            update_pct;
            txns_per_thread = txns;
          }
        in
        let r, k =
          counted (fun () ->
              Span.with_ "Intset.run" (fun () -> Intset.run cfg ~threads icfg))
        in
        outcome k ~attempted:1
          ~failed:(if r.Intset.size_ok then 0 else 1)
          ~parts:
            (ints [ r.Intset.txns; r.Intset.cycles; r.Intset.final_size ]
            @ stats_parts r.Intset.stats)
          ~stats:r.Intset.stats ());
  }

let serve_parts (r : Serve.result) =
  ints
    ([
       r.r_arrivals; r.r_completed; r.r_shed; r.r_timeout; r.r_late;
       r.r_retries; r.r_timeout_aborts; r.r_serial_served; r.r_max_depth;
       r.r_max_dl_wait; r.r_gov_to_shed; r.r_gov_to_serial; r.r_gov_recovered;
       r.r_p50; r.r_p90; r.r_p99; r.r_p999; r.r_max_lat; r.r_span;
       r.r_makespan;
     ]
    @ Array.to_list r.r_retry_hist)
  @ (r.r_final_gov :: stats_parts r.r_stats)

(* One open-loop serve run, optionally followed by the Txlin check of its
   history. Every request of the run fails when the run breaks the service
   invariant or the outcome partition, or when Txlin does not find the
   history linearizable. A request that is shed or times out has not
   failed: admission control and deadlines turn it away by design, and
   the shed and timeout counts are part of the digest, so a run that
   turns away a different number of requests is a digest miss. Such
   requests count as unserved. *)
let serve_cell ~name ~tags ~threads ~tm ~lin scfg =
  {
    name;
    tags;
    run =
      (fun () ->
        let r, k =
          counted (fun () ->
              Span.with_ "Serve.run" (fun () -> Serve.run tm ~threads scfg))
        in
        let verdict =
          if lin then
            Some
              (Span.with_ "Txlin.check_result" (fun () ->
                   Txlin.check_result scfg r))
          else None
        in
        let sound =
          r.Serve.r_invariant_ok && r.Serve.r_partition_ok
          && match verdict with Some v -> v.Txlin.v_ok | None -> true
        in
        outcome k ~attempted:r.Serve.r_arrivals
          ~failed:(if sound then 0 else r.Serve.r_arrivals)
          ~unserved:(r.Serve.r_shed + r.Serve.r_timeout)
          ~parts:(serve_parts r) ~stats:r.Serve.r_stats
          ~serve:{ r with Serve.r_events = [||] }
          ?verdict ());
  }

let deadline_cycles (p : Params.t) us =
  int_of_float (float_of_int us *. p.Params.ghz *. 1000.)

(* ------------------------------------------------------------------ *)
(* paper-8c                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-application scale factors, so that no cell dominates the batch:
   each STAMP cell takes roughly 0.1-0.3 s of host time. *)
let paper_stamp_scale = function
  | Stamp.Genome -> 1.0
  | Stamp.Intruder -> 2.0
  | Stamp.Kmeans_low -> 0.25
  | Stamp.Kmeans_high -> 0.4
  | Stamp.Labyrinth -> 0.25
  | Stamp.Ssca2 -> 2.0
  | Stamp.Vacation_low -> 0.6
  | Stamp.Vacation_high -> 0.4

(* One panel of Fig. 5 per structure, with its update mix, and the
   transactions per thread that keep each cell near the STAMP cells. *)
let paper_intsets =
  [
    (Intset.Linked_list, 512, 20, 60);
    (Intset.Skip_list, 1024, 20, 400);
    (Intset.Rb_tree, 8192, 20, 600);
    (Intset.Hash_set, 256, 100, 800);
  ]

let paper_8c ~seed =
  let params = Params.barcelona in
  let threads = 8 in
  create_systems ~params ~threads
    [ llb8; llb256; stm; phased ];
  create_systems ~params ~threads:1 [ seq ];
  let stamp =
    List.concat_map
      (fun app ->
        List.map
          (stamp_cell ~seed ~params ~threads ~scale:(paper_stamp_scale app) app)
          [ llb8; llb256; stm ])
      Stamp.all
  in
  let intset =
    List.concat_map
      (fun panel ->
        List.map (intset_cell ~seed ~params ~threads panel) [ llb256; stm ])
      paper_intsets
  in
  stamp @ intset
  @ [
      stamp_cell ~seed ~params ~threads:1 ~scale:0.5 Stamp.Vacation_low seq;
      stamp_cell ~seed ~params ~threads ~scale:0.4 Stamp.Vacation_high phased;
    ]

(* ------------------------------------------------------------------ *)
(* serve-lin                                                            *)
(* ------------------------------------------------------------------ *)

(* Requests per run. kv-a is cheap to check. For kv-e and the ledger the
   Txlin search grows about quadratically in time and memory, so their
   histories stay small enough to bound both. The ledger is one key group,
   and the cost of its check varies by about 15% from seed to seed; a kv-e
   check varies threefold, so kv-e histories are kept short and most of
   the Txlin time goes to the ledger. *)
let serve_services =
  [ (Serve.Kv Serve.A, 2000); (Serve.Kv Serve.E, 300); (Serve.Ledger, 1200) ]

(* Several seeds per run, so that a run's figures move with the code
   rather than with one draw of the inputs. *)
let sub_seeds ~n seed = List.init n (fun i -> seed + (1000 * i))

let serve_lin ~seed =
  let threads = 8 in
  let params = Params.barcelona in
  create_systems ~params ~threads [ llb256 ];
  List.concat_map
    (fun seed ->
      let tm = tm_config (snd llb256) ~threads ~seed ~params in
      List.concat_map
        (fun (service, requests) ->
          let sname = Serve.service_name service in
          let base =
            {
              (Serve.default_cfg service) with
              Serve.requests;
              queue_cap = 16;
              deadline = Some (deadline_cycles params 4);
              record = true;
            }
          in
          let capacity =
            Span.with_ "Serve.measure_capacity" (fun () ->
                Serve.measure_capacity tm ~threads base)
          in
          let cycles_per_ms = 1.0 /. Params.cycles_to_ms params 1 in
          List.map
            (fun mult ->
              let mean_gap =
                max 1
                  (int_of_float (cycles_per_ms /. Float.max 1e-9 (capacity *. mult)))
              in
              serve_cell
                ~name:(Printf.sprintf "%s/x%.1f/s%d" sname mult seed)
                ~tags:[ "cell." ^ sname; "mode.llb256" ]
                ~threads ~tm ~lin:true
                { base with Serve.arrival = Serve.Poisson { mean_gap } })
            [ 0.8; 1.5 ])
        serve_services)
    (sub_seeds ~n:10 seed)

(* ------------------------------------------------------------------ *)
(* scale-256c                                                           *)
(* ------------------------------------------------------------------ *)

let scale_256c ~seed =
  let topo = Params.topo_256c8s in
  let params = topo.Params.topo_params in
  let threads = topo.Params.topo_cores in
  create_systems ~params ~threads [ llb256 ];
  List.concat_map
    (fun seed ->
      let named c = { c with name = Printf.sprintf "%s/s%d" c.name seed } in
      let stamp =
        List.map
          (fun (app, scale) ->
            named (stamp_cell ~seed ~params ~threads ~scale app llb256))
          [ (Stamp.Kmeans_low, 0.02); (Stamp.Vacation_low, 0.07); (Stamp.Ssca2, 0.25) ]
      in
      let intset =
        List.map
          (fun panel -> named (intset_cell ~seed ~params ~threads panel llb256))
          [ (Intset.Rb_tree, 8192, 20, 7); (Intset.Hash_set, 128000, 100, 7) ]
      in
      let tm = tm_config (snd llb256) ~threads ~seed ~params in
      let serve =
        serve_cell
          ~name:(Printf.sprintf "kv-a/underload/256t/s%d" seed)
          ~tags:[ "cell.kv-a"; "mode.llb256" ]
          ~threads ~tm ~lin:false
          {
            (Serve.default_cfg (Serve.Kv Serve.A)) with
            Serve.requests = 350;
            queue_cap = 16;
            deadline = Some (deadline_cycles params 8);
            arrival = Serve.Poisson { mean_gap = 2000 };
          }
      in
      stamp @ intset @ [ serve ])
    (sub_seeds ~n:3 seed)

(* ------------------------------------------------------------------ *)
(* repro-pool                                                           *)
(* ------------------------------------------------------------------ *)

let repro_experiments =
  [
    "fig3"; "fig9"; "tab1"; "abl-wins"; "abl-tlb"; "abl-annot"; "abl-backoff";
    "abl-socket"; "serve";
  ]

(* A report fails its self-check when a cell carries the harness's
   failure marks: a trailing '!' or a FAIL verdict. *)
let report_ok (r : Report.t) =
  List.for_all
    (List.for_all (fun c ->
         c <> "FAIL" && not (String.length c > 0 && c.[String.length c - 1] = '!')))
    r.Report.rows

(* Quick-mode experiments with the memo cache cleared, at the pool's
   current [--jobs]. Cycles and counters come from the pool's own
   accumulators, which cover every domain. *)
let experiment_cell ~seed (e : Experiments.t) =
  {
    name = Printf.sprintf "%s/s%d" e.Experiments.id seed;
    tags = [ "harness." ^ e.Experiments.id ];
    run =
      (fun () ->
        Experiments.clear_cache ();
        Parallel.reset_sim_cycles ();
        let reports =
          Span.with_ "Experiments.run" (fun () -> e.Experiments.run ~quick:true ~seed)
        in
        let fused, scheduled = Parallel.fused_scheduled () in
        let inval, fwd, cross, probes, dir_hw = Parallel.coherence () in
        let k =
          {
            k_cycles = Parallel.sim_cycles ();
            k_fused = fused;
            k_scheduled = scheduled;
            k_coherence = [| inval; fwd; cross; probes; dir_hw |];
          }
        in
        outcome k ~attempted:(List.length reports)
          ~failed:(List.length (List.filter (fun r -> not (report_ok r)) reports))
          ~parts:(List.map Report.to_csv reports) ());
  }

let pool_jobs () = Domain.recommended_domain_count ()

let repro_pool ~seed =
  Parallel.set_jobs (pool_jobs ());
  create_systems ~params:Params.barcelona ~threads:8
    (List.map (fun v -> (v.Variant.name, Tm.Asf_mode v)) Variant.all @ [ stm ]);
  create_systems ~params:Params.dual_socket ~threads:8 [ llb256 ];
  create_systems ~params:Params.barcelona ~threads:1 [ seq ];
  List.concat_map
    (fun s ->
      List.map
        (fun id ->
          match Experiments.find id with
          | Some e -> experiment_cell ~seed:s e
          | None -> invalid_arg ("unknown experiment " ^ id))
        repro_experiments)
    (sub_seeds ~n:5 seed)

let all =
  [
    { wname = "paper-8c"; setup = paper_8c };
    { wname = "serve-lin"; setup = serve_lin };
    { wname = "scale-256c"; setup = scale_256c };
    { wname = "repro-pool"; setup = repro_pool };
  ]

let find name = List.find_opt (fun w -> w.wname = name) all
