(* Tests of the benchmark itself: its metric names, its failure
   arithmetic for served requests, and its digest gate. *)

open Perfbench
module W = Workload
module Params = Asf_machine.Params
module Variant = Asf_core.Variant
module Tm = Asf_tm_rt.Tm
module Intset = Asf_intset.Intset
module Serve = Asf_serve.Serve

(* ------------------------------------------------------------------ *)
(* Metric names                                                         *)
(* ------------------------------------------------------------------ *)

(* The (name, unit) pairs of one list of BENCHMARK.json. Every entry there
   is written as {"name": ..., "unit": ..., ...} on one line. *)
let spec_entries key =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0 in
  let stop = String.index_from text start ']' in
  let section = String.sub text start (stop - start) in
  let re = Str.regexp {|"name": "\([^"]*\)", "unit": "\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward re section pos with
    | p -> go (p + 1) ((Str.matched_group 1 section, Str.matched_group 2 section) :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let sorted = List.sort compare

let test_per_layer_names () =
  Alcotest.(check (list (pair string string)))
    "traced run emits exactly BENCHMARK.json's per_layer metrics"
    (sorted (spec_entries "per_layer")) (sorted Layers.all)

let test_end_to_end_names () =
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics and units"
    (sorted (spec_entries "end_to_end"))
    (sorted (("setup_s", "s") :: Layers.end_to_end))

(* ------------------------------------------------------------------ *)
(* Serve failure arithmetic                                             *)
(* ------------------------------------------------------------------ *)

let tm ?(resolve = true) ~seed () =
  {
    (Tm.default_config (Tm.Asf_mode Variant.llb256) ~n_cores:4) with
    Tm.seed;
    resolve_conflicts = resolve;
  }

let us n = int_of_float (float_of_int n *. Params.barcelona.Params.ghz *. 1000.)

let overload service =
  {
    (Serve.default_cfg service) with
    Serve.requests = 400;
    arrival = Serve.Poisson { mean_gap = 60 };
    queue_cap = 8;
    deadline = Some (us 2);
    record = true;
  }

let serve_cell ?resolve ?(records = 1024) ~seed service =
  W.serve_cell ~name:"serve" ~tags:[] ~threads:4 ~tm:(tm ?resolve ~seed ()) ~lin:true
    { (overload service) with Serve.records }

let test_serve_served_share () =
  let run = Runner.create [ serve_cell ~seed:5 (Serve.Kv Serve.E) ] in
  Runner.pass run;
  let o = List.hd (Runner.outcomes run) in
  let r = Option.get o.W.serve in
  Alcotest.(check bool) "overload sheds and times out" true
    (r.Serve.r_shed > 0 && r.Serve.r_timeout > 0);
  Alcotest.(check int) "partition: completed + shed + timeout = arrivals"
    r.Serve.r_arrivals
    (r.Serve.r_completed + r.Serve.r_shed + r.Serve.r_timeout);
  Alcotest.(check int) "one operation per request" r.Serve.r_arrivals o.W.attempted;
  Alcotest.(check int) "a sound run has no failed request" 0 o.W.failed;
  Alcotest.(check int) "unserved = shed + timeout" (r.Serve.r_shed + r.Serve.r_timeout)
    o.W.unserved;
  Alcotest.(check (float 1e-12)) "served share = completed / arrivals"
    (float_of_int r.Serve.r_completed /. float_of_int r.Serve.r_arrivals)
    (Runner.served_share run)

(* ------------------------------------------------------------------ *)
(* Digest gate                                                          *)
(* ------------------------------------------------------------------ *)

let intset_cell ~seed =
  W.intset_cell ~seed ~params:Params.barcelona ~threads:4
    (Intset.Rb_tree, 256, 20, 100) W.llb256

(* Reference digests from one clean run of [cell ~seed:1]. *)
let refs_of cell =
  let r = Runner.create [ cell ] in
  Runner.pass r;
  let tbl = Hashtbl.create 1 in
  Hashtbl.replace tbl cell.W.name (List.hd (Runner.outcomes r)).W.digest;
  tbl

let gate ~refs cell =
  let r = Runner.create ~refs [ cell ] in
  Runner.pass r;
  Runner.pass r;
  r

let test_gate_accepts_reference () =
  let r = gate ~refs:(refs_of (intset_cell ~seed:1)) (intset_cell ~seed:1) in
  Alcotest.(check bool) "correct" true (Runner.correct r);
  Alcotest.(check int) "no failed operation" 0 r.Runner.failed

let test_gate_wrong_seed () =
  let r = gate ~refs:(refs_of (intset_cell ~seed:1)) (intset_cell ~seed:2) in
  Alcotest.(check bool) "wrong seed is not correct" false (Runner.correct r);
  Alcotest.(check int) "the first pass fails" 1 r.Runner.failed;
  Alcotest.(check (float 1e-9)) "failed share" 0.5 (Runner.failed_share r)

let test_gate_missing_reference () =
  let refs = Hashtbl.create 1 in
  Hashtbl.replace refs "another-cell" "0000000000000000";
  let r = gate ~refs (intset_cell ~seed:1) in
  Alcotest.(check bool) "a cell without a reference is not correct" false (Runner.correct r);
  Alcotest.(check int) "the first pass fails" 1 r.Runner.failed

let test_gate_resolve_ablation () =
  let refs = refs_of (serve_cell ~records:2 ~seed:1 (Serve.Kv Serve.F)) in
  let r = gate ~refs (serve_cell ~resolve:false ~records:2 ~seed:1 (Serve.Kv Serve.F)) in
  let o = List.hd (Runner.outcomes r) in
  Alcotest.(check bool) "Txlin rejects the history" false
    (Option.get o.W.verdict).Asf_txlin.Txlin.v_ok;
  Alcotest.(check int) "every request of the run fails" o.W.attempted o.W.failed;
  Alcotest.(check bool) "digest differs from the reference" false (Runner.correct r);
  Alcotest.(check (float 1e-9)) "failed share" 1. (Runner.failed_share r)

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "per-layer names and units" `Quick test_per_layer_names;
          Alcotest.test_case "end-to-end names and units" `Quick test_end_to_end_names;
        ] );
      ( "serve",
        [ Alcotest.test_case "served share matches the partition" `Quick test_serve_served_share ] );
      ( "digest gate",
        [
          Alcotest.test_case "reference accepted" `Quick test_gate_accepts_reference;
          Alcotest.test_case "wrong seed fails" `Quick test_gate_wrong_seed;
          Alcotest.test_case "missing reference fails" `Quick test_gate_missing_reference;
          Alcotest.test_case "resolve ablation on kv-f fails" `Quick test_gate_resolve_ablation;
        ] );
    ]
