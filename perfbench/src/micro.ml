(* Layer microbenchmarks, run through each layer's public functions. They
   price the layers that sit below the calls the spans can wrap (see
   {!Span}): the scheduler queue, the cache hierarchy, the directory's
   sharer sets, the locked-line buffer and an empty transaction. Each
   figure is the median over several batches of host nanoseconds per
   operation. *)

module Pqueue = Asf_engine.Pqueue
module Params = Asf_machine.Params
module Hierarchy = Asf_cache.Hierarchy
module Sharers = Asf_cache.Sharers
module Llb = Asf_core.Llb
module Variant = Asf_core.Variant
module Tm = Asf_tm_rt.Tm

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let batches = 7

(* Median over [batches] runs of [f ()], in ns per operation; [f] performs
   [ops] operations. *)
let ns_per_op ~ops f =
  median
    (List.init batches (fun _ ->
         let t0 = Span.now () in
         f ();
         (Span.now () -. t0) *. 1e9 /. float_of_int ops))

(* push + drop_min at a steady queue depth, under the default policy (the
   calendar queue engages at depth 256). *)
let pqueue ~depth =
  let q = Pqueue.create () in
  let seq = ref 0 in
  for i = 0 to depth - 1 do
    Pqueue.push q ~time:(i * 7 mod 1000) ~seq:!seq i;
    incr seq
  done;
  let ops = 200_000 in
  ns_per_op ~ops (fun () ->
      for _ = 1 to ops do
        let t = Pqueue.min_time q in
        let v = Pqueue.drop_min q in
        Pqueue.push q ~time:(t + 1 + (!seq * 7919 land 1023)) ~seq:!seq v;
        incr seq
      done)

(* Three access streams in turn: L1 hits, a sweep over twice the L3 in
   lines (misses), and writes to one line from rotating cores (each write
   invalidates the previous writer's copy). *)
let hierarchy ~(topo : Params.topology) =
  let n_cores = topo.Params.topo_cores in
  let h = Hierarchy.create topo.Params.topo_params ~n_cores in
  let window = 2 * topo.Params.topo_params.Params.l3_bytes / 64 in
  let per_stream = 50_000 in
  let next = ref 0 in
  let lat = ref 0 in
  let ns =
    ns_per_op ~ops:(3 * per_stream) (fun () ->
        for _ = 1 to per_stream do
          lat := !lat + Hierarchy.access h ~core:0 ~line:1 ~write:false
        done;
        for _ = 1 to per_stream do
          next := (!next + 1) mod window;
          lat := !lat + Hierarchy.access h ~core:1 ~line:(1 + !next) ~write:false
        done;
        for i = 1 to per_stream do
          lat :=
            !lat + Hierarchy.access h ~core:(i mod n_cores) ~line:0 ~write:true
        done)
  in
  ignore (Sys.opaque_identity !lat);
  ns

(* Build a six-sharer set and walk it, per operation. *)
let sharers ~kind ~n_cores ~n_sockets =
  let ctx = Sharers.make_ctx ~kind ~n_cores ~n_sockets in
  let stride = max 1 (n_cores / 6) in
  let ops = 200_000 in
  let acc = ref 0 in
  let ns =
    ns_per_op ~ops (fun () ->
        for i = 1 to ops do
          let s = ref Sharers.empty in
          for k = 0 to 5 do
            s := Sharers.add ctx !s ((i + (k * stride)) mod n_cores)
          done;
          Sharers.iter_others ctx !s ~except:0 (fun c -> acc := !acc + c)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* Insert 64 read entries, then flash-clear; per insert. *)
let llb () =
  let b = Llb.create ~capacity:256 in
  let rounds = 4_000 in
  ns_per_op ~ops:(rounds * 64) (fun () ->
      for _ = 1 to rounds do
        for line = 0 to 63 do
          ignore (Llb.protect_read b (line * 3))
        done;
        Llb.clear b
      done)

(* An empty top-level transaction on a one-core system. The timer wraps
   [Tm.run], which runs one simulated thread, so it covers nothing
   else. *)
let atomic mode =
  let n = 20_000 in
  median
    (List.init batches (fun _ ->
         let sys = Tm.create (Tm.default_config mode ~n_cores:1) in
         ignore
           (Tm.spawn sys ~core:0 (fun ctx ->
                for _ = 1 to n do
                  Tm.atomic ctx (fun () -> ())
                done));
         let t0 = Span.now () in
         Tm.run sys;
         (Span.now () -. t0) *. 1e9 /. float_of_int n))

let all () =
  let b8 = { Params.topo_name = "8c"; topo_cores = 8; topo_params = Params.barcelona } in
  [
    ("engine.pqueue_ns.d8", pqueue ~depth:8);
    ("engine.pqueue_ns.d256", pqueue ~depth:256);
    ("cache.access_ns.8c", hierarchy ~topo:b8);
    ("cache.access_ns.256c", hierarchy ~topo:Params.topo_256c8s);
    ( "cache.sharers_ns.bitmask",
      sharers ~kind:Sharers.Bitmask ~n_cores:8 ~n_sockets:1 );
    ( "cache.sharers_ns.limited",
      sharers ~kind:Sharers.Limited ~n_cores:256 ~n_sockets:8 );
    ("core.llb_ns", llb ());
    ("tm.atomic_asf_ns", atomic (Tm.Asf_mode Variant.llb256));
    ("tm.atomic_stm_ns", atomic Tm.Stm_mode);
  ]
