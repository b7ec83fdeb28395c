(* The store workload: one closed-loop client driving the two on-disk
   stores in process.

   Inputs (generated from the seed before timing):
   - [groups] capture-sample groups, each exactly [flows_per_group]
     distinct flows drawn with a skewed popularity from a fixed flow
     population, so popular flows recur across groups and queries must
     merge their contributions; a third of the groups carry a
     fractional sampling weight.  Each group is digested into a
     [Flows.Shard] during set-up; ingest hands the shards to
     [Flow_store.Writer.add_shard].
   - telemetry points for [series_names] x [sites] series, appended to
     [Obs.Tsdb] one batch per simulated occasion and flushed after each
     batch (compaction runs on the store's default cadence and once
     more at the end).

   A round ingests everything into fresh directories, then issues a
   fixed cyclic mix of read ops one after another.  Every op's result is
   checked against the first result of the same op in the run and,
   after the rounds, against an oracle the benchmark computes itself:
   [Flows.aggregate] over the same groups for flow-store queries and
   lookups ([flow_store.mli] documents the two as byte-identical), and a
   fold over the appended points for [Tsdb.query]/[Tsdb.tail]. *)

let groups = ref 240
let flows_per_group = 400
let population = 24_000
let spill_records = 24_000
let sample_s = 20.0
let sites = Array.init 12 (fun i -> Printf.sprintf "site%02d" i)

let series_names =
  [| "site_drop_rate"; "captured_bytes_per_s"; "pool_busy_fraction";
     "ledger_offered_frames"; "ledger_stored_frames"; "scrape_age_seconds" |]

let batches = 12

(* Longer than the stored span, so compaction runs every [compact_every]
   flushes without dropping anything. *)
let retention = 30.0 *. 86_400.0
let compact_every = 4
let points_per_batch = 20
let batch_span_s = 3600.0

(* {1 Input generation} *)

type flow = { tmpl : Dissect.Acap.record; key : string }

let make_population rng =
  Array.init population (fun i ->
      let octet () = string_of_int (Netcore.Rng.int rng 256) in
      let addr () = "10." ^ octet () ^ "." ^ octet () ^ "." ^ octet () in
      let kind = Netcore.Rng.int rng 20 in
      let l4_tok, l4 =
        if kind < 14 then ("tcp", Some (1024 + Netcore.Rng.int rng 60000, 443))
        else if kind < 19 then ("udp", Some (1024 + Netcore.Rng.int rng 60000, 4789))
        else ("icmp", None)
      in
      let tmpl =
        {
          Dissect.Acap.ts = 0.0;
          orig_len = 0;
          cap_len = 0;
          stack = [ "eth"; "vlan"; "mpls"; "ipv4"; l4_tok ];
          vlan_ids = [ 100 + (i mod 3900) ];
          mpls_labels = [ 16 + Netcore.Rng.int rng 100_000 ];
          src = Some (addr ());
          dst = Some (addr ());
          l4;
          tcp_rst = false;
          truncated = false;
        }
      in
      match Dissect.Acap.flow_key tmpl with
      | Some key -> { tmpl; key }
      | None -> assert false)

(* Calls [f ~site ~fraction acaps] for every group in order.  The
   sequence is a pure function of [seed], so the oracle regenerates the
   very groups the ingest phase stored. *)
let iter_groups seed f =
  let rng = Netcore.Rng.create seed in
  let pop = make_population rng in
  for g = 0 to !groups - 1 do
    let site = sites.(g mod Array.length sites) in
    let fraction =
      if g mod 3 = 2 then 0.25 +. (0.5 *. Netcore.Rng.float rng) else 1.0
    in
    let t0 = float_of_int g *. sample_s in
    let chosen = Hashtbl.create flows_per_group in
    let acaps = ref [] in
    while Hashtbl.length chosen < flows_per_group do
      (* Skewed popularity: low indices recur across many groups. *)
      let u = Netcore.Rng.float rng in
      let i = int_of_float (float_of_int population *. u *. u *. u) in
      if not (Hashtbl.mem chosen i) then begin
        Hashtbl.add chosen i ();
        let fl = pop.(i) in
        let n = min 20 (int_of_float (Netcore.Rng.pareto rng ~shape:1.5 ~scale:1.0)) in
        for _ = 1 to max 1 n do
          let len = 64 + Netcore.Rng.int rng 1451 in
          acaps :=
            {
              fl.tmpl with
              Dissect.Acap.ts = t0 +. (Netcore.Rng.float rng *. sample_s);
              orig_len = len;
              cap_len = min len 128;
              tcp_rst =
                String.equal (List.nth fl.tmpl.Dissect.Acap.stack 4) "tcp"
                && Netcore.Rng.bernoulli rng 0.01;
            }
            :: !acaps
        done
      end
    done;
    f ~site ~fraction (List.rev !acaps)
  done;
  pop

type staged = {
  shards : (string * float * Analysis.Flows.Shard.t) array;
  points : (string * string * float * float) array;
      (* name, site, at, value; distinct (name, site, at) *)
  keys : string array;  (* lookup candidates: popular keys *)
}

let stage seed =
  let shards = ref [] in
  let pop =
    iter_groups seed (fun ~site ~fraction acaps ->
        let sh = Analysis.Flows.Shard.create () in
        List.iter (Analysis.Flows.Shard.add sh) acaps;
        shards := (site, fraction, sh) :: !shards)
  in
  let rng = Netcore.Rng.create (seed lxor 0x5f3759df) in
  let points =
    Array.init
      (batches * Array.length series_names * Array.length sites * points_per_batch)
      (fun i ->
        let k = i mod points_per_batch in
        let s = i / points_per_batch mod Array.length sites in
        let n = i / (points_per_batch * Array.length sites) mod Array.length series_names in
        let b = i / (points_per_batch * Array.length sites * Array.length series_names) in
        let at =
          (float_of_int b *. batch_span_s)
          +. (float_of_int k *. batch_span_s /. float_of_int points_per_batch)
        in
        (series_names.(n), sites.(s), at, Netcore.Rng.float rng *. 1000.0))
  in
  {
    shards = Array.of_list (List.rev !shards);
    points;
    keys = Array.init 64 (fun i -> pop.(i * 7).key);
  }

let records_per_round () = !groups * flows_per_group

(* {1 Read ops} *)

type op =
  | Flow_query of Analysis.Flow_store.predicate * int
  | Flow_lookup of string list
  | Ts_query of Obs.Tsdb.predicate
  | Ts_tail of Obs.Tsdb.predicate * int

let op_kind = function
  | Flow_query _ -> "flowstore_query"
  | Flow_lookup _ -> "flowstore_lookup"
  | Ts_query _ -> "tsdb_query"
  | Ts_tail _ -> "tsdb_tail"

(* The distinct ops of the mix; the run cycles through them. *)
let distinct_ops st =
  let horizon = float_of_int !groups *. sample_s in
  let tsdb_end = float_of_int batches *. batch_span_s in
  let window i = (float_of_int i *. horizon /. 8.0, float_of_int (i + 2) *. horizon /. 8.0) in
  let keys i =
    (* four stored keys and one the store never saw *)
    List.init 4 (fun j -> st.keys.((i * 4) + j)) @ [ Printf.sprintf "absent|%d" i ]
  in
  Array.of_list
    (List.concat
       [
         List.init 4 (fun i ->
             Flow_query (Analysis.Flow_store.predicate ~site:sites.(i * 3) (), 10));
         List.init 4 (fun i ->
             let since, until = window (i * 2) in
             Flow_query
               (Analysis.Flow_store.predicate ~since ~until ~proto:"tcp" (), 20));
         List.init 4 (fun i -> Flow_lookup (keys i));
         List.init 2 (fun i ->
             Ts_query
               (Obs.Tsdb.predicate ~name:series_names.(i)
                  ~since:(tsdb_end *. 0.5) ()));
         List.init 2 (fun i ->
             Ts_tail
               ( Obs.Tsdb.predicate ~name:series_names.(2 + i)
                   ~labels:[ ("site", sites.(i)) ]
                   (),
                 8 ));
       ])

(* Result rendering for comparison: exact bytes of every float. *)
let render v = Marshal.to_string v [ Marshal.No_sharing ]

let run_op ~fs ~ts = function
  | Flow_query (pred, top) ->
    let r = Analysis.Flow_store.query ~pred ~top fs in
    (render r.Analysis.Flow_store.flows, List.length r.Analysis.Flow_store.flows)
  | Flow_lookup keys ->
    let r = Analysis.Flow_store.lookup ~keys fs in
    (render r, List.length (List.filter (fun (_, s) -> s <> None) r))
  | Ts_query pred ->
    let r = Obs.Tsdb.query ~pred ts in
    let pts =
      List.map
        (fun (n, l, recs) -> (n, l, List.map Obs.Tsdb.point_of_record recs))
        r
    in
    (render pts, List.fold_left (fun a (_, _, p) -> a + List.length p) 0 pts)
  | Ts_tail (pred, n) ->
    let r = Obs.Tsdb.tail ~pred ~n ts in
    (render r, List.fold_left (fun a (_, _, p) -> a + List.length p) 0 r)

(* {1 Oracle} *)

let oracle seed st ops =
  (* Per group: its site, fraction and acaps grouped by flow key, with
     the group-level first/last a stored (flow, group) record carries. *)
  let gs = ref [] in
  ignore
    (iter_groups seed (fun ~site ~fraction acaps ->
         let by_key = Hashtbl.create flows_per_group in
         let order = ref [] in
         List.iter
           (fun (a : Dissect.Acap.record) ->
             let k = Option.get (Dissect.Acap.flow_key a) in
             let ts = a.Dissect.Acap.ts in
             match Hashtbl.find_opt by_key k with
             | None ->
               order := k :: !order;
               Hashtbl.add by_key k (ts, ts, [ a ])
             | Some (first, last, l) ->
               Hashtbl.replace by_key k (Float.min first ts, Float.max last ts, a :: l))
           acaps;
         let flows =
           List.rev_map
             (fun k ->
               let first, last, l = Hashtbl.find by_key k in
               (k, first, last, List.rev l))
             !order
         in
         gs := (site, fraction, flows) :: !gs));
  let gs = List.rev !gs in
  let aggregate keep =
    Analysis.Flows.aggregate
      ~weights:
        (List.map
           (fun (site, fraction, flows) ->
             ( List.concat_map
                 (fun (key, first, last, acaps) ->
                   if keep ~site ~key ~first ~last then acaps else [])
                 flows,
               fraction ))
           gs)
      []
  in
  let all = lazy (aggregate (fun ~site:_ ~key:_ ~first:_ ~last:_ -> true)) in
  let series pred =
    (* matching points grouped per series in canonical order *)
    let pts =
      List.filter
        (fun (name, site, at, _) ->
          Obs.Tsdb.matches pred
            (Obs.Tsdb.raw_point ~name ~labels:[ ("site", site) ] ~at 0.0))
        (Array.to_list st.points)
    in
    let pts =
      List.sort
        (fun (n1, s1, a1, _) (n2, s2, a2, _) -> compare (n1, s1, a1) (n2, s2, a2))
        pts
    in
    List.fold_right
      (fun (n, s, at, v) acc ->
        match acc with
        | (n', l, ps) :: rest when String.equal n n' && l = [ ("site", s) ] ->
          (n', l, (at, v) :: ps) :: rest
        | _ -> (n, [ ("site", s) ], [ (at, v) ]) :: acc)
      pts []
  in
  Array.map
    (function
      | Flow_query (p, top) ->
        (* The predicate applies to each stored (flow, group) record. *)
        let keep ~site ~key ~first ~last =
          let opt test = function None -> true | Some v -> test v in
          opt (String.equal site) p.Analysis.Flow_store.q_site
          && opt (fun t -> last >= t) p.Analysis.Flow_store.q_since
          && opt (fun t -> first <= t) p.Analysis.Flow_store.q_until
          && opt
               (String.equal (Analysis.Flow_store.proto_of_key key))
               p.Analysis.Flow_store.q_proto
        in
        render (Analysis.Flows.top_n (aggregate keep) top)
      | Flow_lookup keys ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (s : Analysis.Flows.summary) ->
            if List.mem s.Analysis.Flows.flow_key keys then
              Hashtbl.replace tbl s.Analysis.Flows.flow_key s)
          (Lazy.force all);
        render (List.map (fun k -> (k, Hashtbl.find_opt tbl k)) keys)
      | Ts_query pred -> render (series pred)
      | Ts_tail (pred, n) ->
        render
          (List.map
             (fun (name, l, ps) ->
               let len = List.length ps in
               (name, l, List.filteri (fun i _ -> i >= len - n) ps))
             (series pred)))
    ops

(* {1 Rounds} *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* [section row ~spans f]: untraced, just [f ()]; traced, time [f] into
   [row] and move the named program spans it produced to their rows. *)
type sections = {
  section : 'a. string -> (string * string) list -> (unit -> 'a) -> 'a;
}

let untraced = { section = (fun _ _ f -> f ()) }

let traced =
  {
    section =
      (fun row spans f ->
        if spans = [] then Layers.timed row f
        else begin
          let v, totals = Layers.with_spans (List.map fst spans) (fun () -> Layers.timed row f) in
          List.iter
            (fun (span, into) ->
              let count, wall, words = List.assoc span totals in
              Layers.transfer ~from:row ~into ~count ~wall ~words)
            spans;
          v
        end);
  }

let points_per_flush = Array.length series_names * Array.length sites * points_per_batch

(* Write every staged input into fresh stores; returns the segment
   lists and the phase's wall seconds. *)
let ingest s st ~fs_dir ~ts_dir =
  rm_rf fs_dir;
  rm_rf ts_dir;
  let t0 = Layers.now () in
  let w =
    s.section "analysis.flowstore_ingest_s" [] (fun () ->
        Analysis.Flow_store.Writer.create ~spill_records ~dir:fs_dir ())
  in
  Array.iter
    (fun (site, fraction, shard) ->
      s.section "analysis.flowstore_ingest_s"
        [ ("flowstore.spill", "analysis.flowstore_spill_s") ]
        (fun () -> Analysis.Flow_store.Writer.add_shard w ~site ~fraction shard))
    st.shards;
  let fs =
    s.section "analysis.flowstore_spill_s" [] (fun () ->
        Analysis.Flow_store.Writer.finish w)
  in
  let store =
    s.section "obs.tsdb_append_s" [] (fun () -> Obs.Tsdb.open_store ~retention ~compact_every ~dir:ts_dir ())
  in
  for b = 0 to batches - 1 do
    s.section "obs.tsdb_append_s" [] (fun () ->
        for i = b * points_per_flush to ((b + 1) * points_per_flush) - 1 do
          let name, site, at, v = st.points.(i) in
          Obs.Tsdb.append_point store ~name ~labels:[ ("site", site) ] ~at v
        done);
    ignore
      (s.section "obs.tsdb_flush_s"
         [ ("tsdb.compact", "obs.tsdb_compact_s") ]
         (fun () -> Obs.Tsdb.flush store))
  done;
  s.section "obs.tsdb_compact_s" [] (fun () -> Obs.Tsdb.compact store);
  (fs, Obs.Tsdb.segments store, Layers.now () -. t0)

let op_row = function
  | Flow_query _ -> "analysis.flowstore_query_s"
  | Flow_lookup _ -> "analysis.flowstore_lookup_s"
  | Ts_query _ -> "obs.tsdb_query_s"
  | Ts_tail _ -> "obs.tsdb_tail_s"

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let run ~seed ~rounds ~ops_per_round ~work ~trace =
  (* The reference kernel runs in a child process right before every
     set-up and round; run.py scales their timings by it (calibrate.ml). *)
  let kernel () =
    let exe = Sys.executable_name in
    let ic = Unix.open_process_args_in exe [| exe; "calibrate" |] in
    let line = input_line ic in
    ignore (Unix.close_process_in ic);
    Scanf.sscanf line "metric kernel_s %f" Fun.id
  in
  (* Set-up: stage the inputs five times and keep the last; each is
     printed as [setup SECONDS KERNEL_S]. *)
  let st = ref None in
  for _ = 1 to 5 do
    st := None;
    let k = kernel () in
    let t0 = Layers.now () in
    st := Some (stage seed);
    Printf.printf "setup %.9f %.9f\n" (Layers.now () -. t0) k
  done;
  let st = Option.get !st in
  (* Drop the staging garbage so every round starts from the same heap:
     the live staged inputs, whatever transient peak the seed caused. *)
  Gc.compact ();
  let peak_heap = ref 0.0 in
  let sample_heap () =
    peak_heap := Float.max !peak_heap (float_of_int (Gc.quick_stat ()).Gc.heap_words)
  in
  let ops = distinct_ops st in
  let n_ops = Array.length ops in
  let first = Array.make n_ops None in
  let occurrences = Array.make n_ops 0 in
  let attempted = ref 0 and failed = ref 0 in
  let fs_dir = Filename.concat work "flows" and ts_dir = Filename.concat work "tsdb" in
  let records_written () = Layers.counter_sum "flowstore_records_written_total" in
  (* Round [index] issues every [stride]-th op of the cycle, starting at
     [index mod stride]: with 16 distinct ops and 8 a round, the even and
     the odd ops alternate, and each half holds the same kinds of op. *)
  let stride = if n_ops mod ops_per_round = 0 then n_ops / ops_per_round else 1 in
  let op_index ~index i = ((i * stride) + (index mod stride)) mod n_ops in
  let round ~index =
    (* Returns (ingest wall, round wall, words); op latencies go to
       stdout as [op KIND SECONDS ROUND]. *)
    let w0 = Layers.allocated_words () in
    let written0 = records_written () in
    let fs, ts, ingest_s = ingest untraced st ~fs_dir ~ts_dir in
    let words = ref (Layers.allocated_words () -. w0) in
    sample_heap ();
    incr attempted;
    if records_written () -. written0 <> float_of_int (records_per_round ()) then begin
      incr failed;
      Layers.check "store.ingest_records" false
        (Printf.sprintf "wrote %.0f records, staged %d"
           (records_written () -. written0) (records_per_round ()))
    end;
    let wall = ref ingest_s in
    for i = 0 to ops_per_round - 1 do
      let d = op_index ~index i in
      let op = ops.(d) in
      let w0 = Layers.allocated_words () in
      let t0 = Layers.now () in
      let rendered, _ = run_op ~fs ~ts op in
      let dt = Layers.now () -. t0 in
      words := !words +. (Layers.allocated_words () -. w0);
      wall := !wall +. dt;
      sample_heap ();
      Printf.printf "op %s %.9f %d\n" (op_kind op) dt index;
      incr attempted;
      occurrences.(d) <- occurrences.(d) + 1;
      match first.(d) with
      | None -> first.(d) <- Some rendered
      | Some r -> if not (String.equal r rendered) then incr failed
    done;
    (ingest_s, !wall, !words)
  in
  let results =
    List.init rounds (fun index ->
        let k = kernel () in
        let ((ingest_s, wall, _) as r) = round ~index in
        Printf.printf "round %d %.9f %.9f %.9f\n" index ingest_s wall k;
        r)
  in
  let _, _, words1 = List.hd results in
  let untraced_wall = median (List.map (fun (_, w, _) -> w) results) in
  if trace then begin
    let busy0 = Layers.counter_sum "pool_domain_busy_seconds_total" in
    let scanned0 = Layers.counter_sum "flowstore_records_scanned_total" in
    let tsdb_scanned0 = Layers.counter_sum "tsdb_records_scanned_total" in
    let returned = ref 0 in
    let _, traced_wall, _ =
      let fs, ts, ingest_s = ingest traced st ~fs_dir ~ts_dir in
      let wall = ref ingest_s in
      for i = 0 to ops_per_round - 1 do
        let op = ops.(op_index ~index:rounds i) in
        let t0 = Layers.now () in
        let _, n =
          traced.section (op_row op) [] (fun () -> run_op ~fs ~ts op)
        in
        wall := !wall +. (Layers.now () -. t0);
        match op with
        | Flow_query _ | Flow_lookup _ -> returned := !returned + n
        | _ -> ()
      done;
      (ingest_s, !wall, 0.0)
    in
    Layers.metric "traced_wall_s" traced_wall;
    Layers.metric "untraced_wall_s" untraced_wall;
    Layers.metric "analysis.flows_returned" (float_of_int !returned);
    Layers.metric "analysis.records_scanned"
      (Layers.counter_sum "flowstore_records_scanned_total" -. scanned0);
    Layers.metric "obs.tsdb_records_scanned"
      (Layers.counter_sum "tsdb_records_scanned_total" -. tsdb_scanned0);
    Layers.metric "parallel.pool_busy_s"
      (Layers.counter_sum "pool_domain_busy_seconds_total" -. busy0);
    Layers.print_rows ()
  end;
  (* Oracle: every distinct op, plus an unfiltered full-store check. *)
  let expected = oracle seed st ops in
  (* Self-test hook: a perturbed oracle must flip the check. *)
  if Sys.getenv_opt "PERFBENCH_CORRUPT" = Some "store-oracle" then
    expected.(0) <- expected.(0) ^ "!";
  Array.iteri
    (fun d exp ->
      match first.(d) with
      | Some got when not (String.equal got exp) ->
        failed := !failed + occurrences.(d);
        Layers.check ("store.op" ^ string_of_int d) false (op_kind ops.(d))
      | Some _ -> ()
      | None -> Layers.check ("store.op" ^ string_of_int d) false "never issued")
    expected;
  let full = oracle seed st [| Flow_query (Analysis.Flow_store.no_predicate, max_int) |] in
  let fs = Analysis.Flow_store.segments_in_dir fs_dir in
  let got = render (Analysis.Flow_store.query fs).Analysis.Flow_store.flows in
  incr attempted;
  if not (String.equal got full.(0)) then begin
    incr failed;
    Layers.check "store.full_query" false "query <> Flows.aggregate"
  end;
  Layers.check "store.oracle" (!failed = 0)
    (Printf.sprintf "%d/%d ops failed" !failed !attempted);
  rm_rf fs_dir;
  rm_rf ts_dir;
  Layers.metric "wall_s" untraced_wall;
  Layers.metric "ingest_s" (median (List.map (fun (i, _, _) -> i) results));
  Layers.metric "items" (float_of_int (records_per_round ()));
  Layers.metric "points" (float_of_int (Array.length st.points));
  Layers.metric "alloc_words" words1;
  Layers.metric "peak_heap_words" !peak_heap;
  Layers.metric "attempted" (float_of_int !attempted);
  Layers.metric "failed" (float_of_int !failed)
