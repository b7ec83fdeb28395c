(* Capture generator for the analyze workload.

   Builds a classic pcap of exactly [frames] records from the repo's own
   traffic model: each flow gets a FABRIC-style stack from
   [Traffic.Stack_builder] (VLAN, one or two MPLS labels, sometimes a
   pseudowire, VXLAN or IPv6 inner traffic) and its frames come from
   [Traffic.Flow_model.frames_in_window].  Flows arrive as a Poisson
   process, carry a Pareto (heavy-tailed) number of frames, and draw
   frame sizes from a mix of 64-byte minimums, mid-size frames, MTU
   frames and jumbos.  Frames are emitted one simulated second at a
   time, sorted by timestamp, so memory holds only the active flows.
   Records are truncated to [snaplen] bytes, as a header capture is. *)

(* Mean of [frame_size] below, the model's [avg_frame_size]. *)
let frame_size =
  Netcore.Dist.Mixture
    [
      (0.35, Netcore.Dist.Constant 64.0);
      (0.25, Netcore.Dist.Uniform (64.0, 600.0));
      (0.25, Netcore.Dist.Constant 1514.0);
      (0.15, Netcore.Dist.Uniform (1514.0, 9000.0));
    ]

let avg_frame_size = (0.35 *. 64.0) +. (0.25 *. 332.0) +. (0.25 *. 1514.0) +. (0.15 *. 5257.0)

let flow_arrivals_per_s = 400.0

let new_flow rng ~flow_id ~start_time =
  let services = Dissect.Services.catalog in
  let template =
    Traffic.Stack_builder.forward rng
      {
        Traffic.Stack_builder.vlan_id = 100 + Netcore.Rng.int rng 3900;
        mpls_labels =
          List.init
            (1 + Netcore.Rng.int rng 2)
            (fun _ -> 16 + Netcore.Rng.int rng 100_000);
        use_pseudowire = Netcore.Rng.bernoulli rng 0.3;
        use_vxlan = Netcore.Rng.bernoulli rng 0.1;
        use_ipv6 = Netcore.Rng.bernoulli rng 0.15;
        service = services.(Netcore.Rng.int rng (Array.length services));
      }
  in
  let n_frames =
    Float.min 3000.0 (Netcore.Rng.pareto rng ~shape:1.3 ~scale:4.0)
  in
  let duration = 1.0 +. Netcore.Rng.float rng *. 29.0 in
  Traffic.Flow_model.make ~flow_id ~template ~frame_size ~avg_frame_size
    ~byte_rate:(n_frames *. avg_frame_size /. duration)
    ~start_time ~duration
    ~subflows:(if Netcore.Rng.bernoulli rng 0.1 then 4 else 1)
    ()

(* Writes the capture to [out] and the first [excerpt] records to
   [excerpt_out]; returns (records, capture bytes, flows started). *)
let write_capture ~seed ~frames ~snaplen ~out ~excerpt ~excerpt_out =
  let rng = Netcore.Rng.create seed in
  let w = Packet.Pcap.Writer.create ~snaplen () in
  let ex = Packet.Pcap.Writer.create ~snaplen () in
  let emitted = ref 0 in
  let flows = ref 0 in
  let next_arrival = ref 0.0 in
  let active = ref [] in
  let second = ref 0 in
  while !emitted < frames do
    let t0 = float_of_int !second and t1 = float_of_int (!second + 1) in
    while !next_arrival < t1 do
      incr flows;
      active := new_flow rng ~flow_id:!flows ~start_time:!next_arrival :: !active;
      next_arrival :=
        !next_arrival
        +. Netcore.Rng.exponential rng ~mean:(1.0 /. flow_arrivals_per_s)
    done;
    active := List.filter (fun s -> Traffic.Flow_model.end_time s > t0) !active;
    let batch =
      List.concat_map
        (fun s ->
          Traffic.Flow_model.frames_in_window s rng ~start_time:t0 ~end_time:t1)
        (List.rev !active)
    in
    let batch = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) batch in
    List.iter
      (fun (ts, f) ->
        if !emitted < frames then begin
          Packet.Pcap.Writer.add_frame w ~ts f;
          if !emitted < excerpt then Packet.Pcap.Writer.add_frame ex ~ts f;
          incr emitted
        end)
      batch;
    incr second
  done;
  Packet.Pcap.Writer.to_file w out;
  Packet.Pcap.Writer.to_file ex excerpt_out;
  (Packet.Pcap.Writer.packet_count w, Packet.Pcap.Writer.byte_length w, !flows)
