(* Reference kernel for calibrating timings against the machine's speed.

   The benchmark runs on shared hosts whose speed drifts by 10-20% over
   tens of seconds, which moves every wall time of a run together.  The
   kernel is fixed OCaml work in the same style as the workloads
   (allocation, string hashing, sorting) that uses none of the repo's
   libraries, so no change to the program can move it; run.py times it
   next to every repetition and scales that repetition's timings by
   reference time / kernel time. *)

let kernel () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for r = 1 to 2 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 60_000 do
      Hashtbl.replace h (string_of_int ((i * 7919) + r)) (i, [ i; r ])
    done;
    let a = Array.init 100_000 (fun i -> float_of_int (i * 104_729 mod 100_003)) in
    Array.sort Float.compare a;
    let l = List.init 100_000 (fun i -> (i, string_of_int i)) in
    let l = List.sort (fun (a, _) (b, _) -> compare b a) l in
    acc := !acc + Hashtbl.length h + List.length l + int_of_float a.(0)
  done;
  if !acc <> 320_002 then failwith "Calibrate.kernel: wrong result";
  Unix.gettimeofday () -. t0
