(* Traced mirrors of the CLI's [weekly --flow-store] and [analyze --csv]
   commands.

   Each mirror makes the same library calls, with the same arguments and
   in the same order, as bin/patchwork_cli.ml, and wraps every call into
   a layer with {!Layers.timed}.  run.py compares the mirror's CSVs (and
   the flow store's [query] output) byte for byte with the CLI's, which
   is what proves the mirror still matches the production command. *)

let pool_size () = Parallel.Pool.default_size ()

(* {1 weekly} *)

let weekly ~seed ~weeks ~start_day ~hours ~out ~flow_store =
  let violations0 = Layers.counter_sum "ledger_conservation_violations_total" in
  let overlay0 = Layers.counter_sum "overlay_classified_total" in
  let busy0 = Layers.counter_sum "pool_domain_busy_seconds_total" in
  let flows_spawned = ref 0 and events = ref 0 in
  let sites = ref 0 and sites_failed = ref 0 in
  let t0 = Layers.now () in
  let frames =
    Parallel.Pool.with_pool ~size:(pool_size ()) @@ fun pool ->
    let service_log = Patchwork.Logging.create ~capacity:4096 () in
    let builder = Analysis.Profile.Builder.create ~log:service_log () in
    let store =
      Analysis.Flow_store.Writer.create ~spill_records:200_000 ~dir:flow_store ()
    in
    for w = 0 to weeks - 1 do
      let day = start_day + (7 * w) in
      let start_time = float_of_int day *. Netcore.Timebase.day in
      let engine, fabric, driver =
        Layers.timed "testbed.setup_s" (fun () ->
            let engine = Simcore.Engine.create ~start_time () in
            let fabric = Testbed.Fablib.create ~seed engine in
            let driver =
              Traffic.Driver.create ~pool fabric ~seed:(seed + (31 * w))
            in
            (engine, fabric, driver))
      in
      let config =
        {
          Patchwork.Config.default with
          Patchwork.Config.samples_per_run = 4;
          max_frames_per_sample = 3000;
          pool_size = Parallel.Pool.size pool;
          emit_pcap = false;
        }
      in
      let report, spans =
        Layers.with_spans [ "occasion.sampling" ] (fun () ->
            Layers.timed "core.occasion_s" (fun () ->
                Patchwork.Coordinator.run_occasion ~fabric ~driver ~config ~pool
                  ~log:service_log ~start_time
                  ~duration:(hours *. Netcore.Timebase.hour) ()))
      in
      let n, wall, words = List.assoc "occasion.sampling" spans in
      Layers.transfer ~from:"core.occasion_s" ~into:"core.sampling_s" ~count:n
        ~wall ~words;
      flows_spawned := !flows_spawned + Traffic.Driver.spawned_flows driver;
      events := !events + Simcore.Engine.executed engine;
      List.iter
        (fun (s : Patchwork.Coordinator.site_report) ->
          incr sites;
          match s.Patchwork.Coordinator.outcome with
          | Patchwork.Coordinator.Site_success | Patchwork.Coordinator.Site_degraded
            ->
            ()
          | _ -> incr sites_failed)
        report.Patchwork.Coordinator.sites;
      let (), spans =
        Layers.with_spans [ "flowstore.spill" ] (fun () ->
            Layers.timed "analysis.absorb_s" (fun () ->
                Analysis.Profile.Builder.add_report ~pool ~flow_store:store builder
                  report))
      in
      let n, wall, words = List.assoc "flowstore.spill" spans in
      Layers.transfer ~from:"analysis.absorb_s" ~into:"analysis.flowstore_spill_s"
        ~count:n ~wall ~words
    done;
    let profile =
      Layers.timed "analysis.finish_s" (fun () ->
          Analysis.Profile.Builder.finish builder)
    in
    Layers.timed "analysis.write_s" (fun () ->
        ignore (Analysis.Profile.write_csv_files profile ~dir:out);
        ignore (Analysis.Figures.write_profile_figures profile ~dir:out));
    ignore
      (Layers.timed "analysis.flowstore_spill_s" (fun () ->
           Analysis.Flow_store.Writer.finish store));
    profile.Analysis.Profile.total_frames
  in
  let wall = Layers.now () -. t0 in
  let frames_f = float_of_int frames in
  Layers.metric "traced_wall_s" wall;
  Layers.metric "items" frames_f;
  Layers.metric "core.sites_attempted" (float_of_int !sites);
  Layers.metric "core.sites_failed" (float_of_int !sites_failed);
  Layers.metric "core.ledger_violations"
    (Layers.counter_sum "ledger_conservation_violations_total" -. violations0);
  Layers.metric "traffic.flows_spawned" (float_of_int !flows_spawned);
  Layers.metric "simcore.events" (float_of_int !events);
  Layers.metric "dissect.overlay_classified"
    (Layers.counter_sum "overlay_classified_total" -. overlay0);
  Layers.metric "parallel.pool_busy_s"
    (Layers.counter_sum "pool_domain_busy_seconds_total" -. busy0);
  Layers.print_rows ()

(* {1 analyze} *)

let analyze ~file ~csv_dir =
  let overlay0 = Layers.counter_sum "overlay_classified_total" in
  let busy0 = Layers.counter_sum "pool_domain_busy_seconds_total" in
  let t0 = Layers.now () in
  let frames =
    Parallel.Pool.with_pool ~size:(pool_size ()) @@ fun pool ->
    let acaps, spans =
      Layers.with_spans [ "digest.index" ] (fun () ->
          Layers.timed "analysis.digest_s" (fun () ->
              Analysis.Digest.pcap_file_to_acaps ~pool ~cache_bits:0 file))
    in
    let n, wall, words = List.assoc "digest.index" spans in
    Layers.transfer ~from:"analysis.digest_s" ~into:"packet.index_s" ~count:n
      ~wall ~words;
    Layers.timed "analysis.summarize_s" (fun () ->
        let occ = Analysis.Analyze.occurrence acaps in
        let h = Analysis.Analyze.frame_size_histogram acaps in
        Printf.printf "%d frames, %d distinct flows, %.2f%% IPv6, %.1f%% jumbo\n"
          (List.length acaps)
          (Analysis.Analyze.observed_flows acaps)
          (Analysis.Analyze.ipv6_percent acaps)
          (100.0 *. Analysis.Analyze.jumbo_fraction acaps);
        if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755;
        Analysis.Report.write_file
          (Filename.concat csv_dir "occurrence.csv")
          (Analysis.Report.csv_of_rows ~header:[ "protocol"; "percent" ]
             (Analysis.Report.occurrence_rows occ));
        Analysis.Report.write_file
          (Filename.concat csv_dir "frame_sizes.csv")
          (Analysis.Report.csv_of_rows ~header:[ "bin"; "count"; "fraction" ]
             (Analysis.Report.histogram_rows h)));
    List.length acaps
  in
  let wall = Layers.now () -. t0 in
  Layers.metric "traced_wall_s" wall;
  Layers.metric "items" (float_of_int frames);
  Layers.metric "dissect.overlay_classified"
    (Layers.counter_sum "overlay_classified_total" -. overlay0);
  Layers.metric "parallel.pool_busy_s"
    (Layers.counter_sum "pool_domain_busy_seconds_total" -. busy0);
  Layers.print_rows ()
