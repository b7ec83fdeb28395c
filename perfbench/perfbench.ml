(* Entry point of the benchmark's OCaml half.  Subcommands (positional
   arguments, driven by run.py):

     info
     calibrate
     gen-pcap SEED FRAMES SNAPLEN OUT EXCERPT EXCERPT_OUT
     store SEED GROUPS ROUNDS OPS_PER_ROUND WORKDIR TRACE
     weekly-trace SEED WEEKS START_DAY HOURS OUT FLOW_STORE
     analyze-trace FILE CSV_DIR
     weekly-read-store OUT BUDGET SEGMENTS FLOW_STORE *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "info" ] ->
    Layers.info "ocaml" Sys.ocaml_version;
    Layers.info "domains" (string_of_int (Parallel.Pool.default_size ()));
    Layers.info "recommended_domains"
      (string_of_int (Domain.recommended_domain_count ()))
  | [ "calibrate" ] -> Layers.metric "kernel_s" (Calibrate.kernel ())
  | [ "gen-pcap"; seed; frames; snaplen; out; excerpt; excerpt_out ] ->
    let records, bytes, flows =
      Gen.write_capture ~seed:(int_of_string seed)
        ~frames:(int_of_string frames) ~snaplen:(int_of_string snaplen) ~out
        ~excerpt:(int_of_string excerpt) ~excerpt_out
    in
    Layers.metric "records" (float_of_int records);
    Layers.metric "bytes" (float_of_int bytes);
    Layers.metric "flows" (float_of_int flows)
  | [ "store"; seed; groups; rounds; ops; work; trace ] ->
    Store.groups := int_of_string groups;
    Store.run ~seed:(int_of_string seed) ~rounds:(int_of_string rounds)
      ~ops_per_round:(int_of_string ops) ~work ~trace:(trace = "1")
  | [ "weekly-trace"; seed; weeks; start_day; hours; out; flow_store ] ->
    Mirror.weekly ~seed:(int_of_string seed) ~weeks:(int_of_string weeks)
      ~start_day:(int_of_string start_day) ~hours:(float_of_string hours) ~out
      ~flow_store
  | [ "analyze-trace"; file; csv_dir ] -> Mirror.analyze ~file ~csv_dir
  | [ "weekly-read-store"; out; budget; segments; dir ] ->
    Reads.build_store ~out ~budget:(int_of_string budget)
      ~segments:(int_of_string segments) dir
  | _ ->
    prerr_endline "perfbench: bad arguments (see perfbench/perfbench.ml)";
    exit 2
