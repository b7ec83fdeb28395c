(* The store the weekly workload's read ops ([query] commands) run on:
   [budget] records drawn evenly from a flow store written by
   [weekly --flow-store] (spread over the whole of its key order), dealt
   round-robin into [segments] segment files under [out].  A fixed
   size, because the services of a panel write stores of very different
   sizes (a heavy tail of flows per sample), and a query's latency
   follows the records it scans.  A store smaller than [budget] is
   taken more than once, copy [c]'s sample-group sequence numbers
   shifted by [c] * 2^20 so that the copies stay distinct groups (the
   segment format stores sequence numbers in 31 bits). *)
let build_store ~out ~budget ~segments dir =
  let records =
    Array.of_list
      (List.concat_map
         (fun path ->
           match Analysis.Flow_store.Segment.read_all path with
           | Error e -> failwith e
           | Ok records -> records)
         (Analysis.Flow_store.segments_in_dir dir))
  in
  let n = Array.length records in
  if n = 0 then failwith (dir ^ ": an empty flow store");
  let files = Array.make segments [] in
  for j = budget - 1 downto 0 do
    let r, copy =
      if n >= budget then (records.(j * n / budget), 0) else (records.(j mod n), j / n)
    in
    let seq = r.Analysis.Flow_store.r_seq in
    if seq >= 1 lsl 20 || copy >= 1 lsl 10 then
      failwith "weekly-read-store: sequence numbers out of range";
    let r = { r with Analysis.Flow_store.r_seq = seq + (copy lsl 20) } in
    files.(j mod segments) <- r :: files.(j mod segments)
  done;
  Sys.mkdir out 0o755;
  Array.iteri
    (fun s records ->
      ignore
        (Analysis.Flow_store.Segment.write
           (Filename.concat out (Printf.sprintf "flows-%06d.pwfs" s))
           records))
    files
