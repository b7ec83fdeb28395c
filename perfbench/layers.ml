(* Per-layer accounting for the traced runs.

   Every row is timed from outside the program: wall clock and this
   domain's minor words around the public call.  Rows hold {e self}
   figures, so the rows of one workload plus its unattributed remainder
   sum to the traced wall.  Where a call contains a span the program
   already records (e.g. [occasion.sampling] inside [run_occasion]),
   the span's figures move to their own row and are subtracted from the
   enclosing call's row. *)

type row = {
  name : string;
  mutable count : int;
  mutable self_s : float;
  mutable words : float;
}

let rows : row list ref = ref []

let row name =
  match List.find_opt (fun r -> String.equal r.name name) !rows with
  | Some r -> r
  | None ->
    let r = { name; count = 0; self_s = 0.0; words = 0.0 } in
    rows := !rows @ [ r ];
    r

let now = Unix.gettimeofday

(* Wall seconds and minor words of [f ()], credited to [name]. *)
let timed name f =
  let r = row name in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  r.count <- r.count + 1;
  r.self_s <- r.self_s +. dt;
  r.words <- r.words +. (Gc.minor_words () -. w0);
  v

(* Move a span total out of [from] into [into]. *)
let transfer ~from ~into ~count ~wall ~words =
  let f = row from and i = row into in
  f.self_s <- f.self_s -. wall;
  f.words <- f.words -. words;
  i.count <- i.count + count;
  i.self_s <- i.self_s +. wall;
  i.words <- i.words +. words

(* {1 Reading the program's own spans and counters} *)

(* Count, wall and minor words of every finished span named [name]
   in the default tracer (roots and retained descendants). *)
let span_totals name =
  let rec walk (n, w, m) sp =
    let acc =
      if String.equal (Obs.Span.name sp) name then
        (n + 1, w +. Obs.Span.wall sp, m +. Obs.Span.minor_words sp)
      else (n, w, m)
    in
    List.fold_left walk acc (Obs.Span.children sp)
  in
  List.fold_left walk (0, 0.0, 0.0) (Obs.Span.roots Obs.Span.default)

(* Run [f] with a fresh tracer history and return its result with the
   totals of the named spans it produced. *)
let with_spans names f =
  Obs.Span.reset Obs.Span.default;
  let v = f () in
  let totals = List.map (fun n -> (n, span_totals n)) names in
  Obs.Span.reset Obs.Span.default;
  (v, totals)

(* Sum of a counter family over all label sets. *)
let counter_sum name =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) ->
      match s.Obs.Registry.s_value with
      | Obs.Registry.Counter v when String.equal s.Obs.Registry.s_name name ->
        acc +. v
      | _ -> acc)
    0.0
    (Obs.Registry.snapshot Obs.Registry.default)

(* {1 Output} *)

(* Machine-readable lines for run.py: [layer NAME COUNT SELF_S WORDS],
   [metric NAME VALUE] and [check NAME ok|FAIL DETAIL]. *)
let print_rows () =
  List.iter
    (fun r ->
      Printf.printf "layer %s %d %.9f %.0f\n" r.name r.count r.self_s r.words)
    !rows

let metric name v = Printf.printf "metric %s %.17g\n" name v
let info key v = Printf.printf "info %s %s\n" key v

let check name ok detail =
  Printf.printf "check %s %s %s\n" name (if ok then "ok" else "FAIL") detail

(* Words allocated by this domain so far (minor + direct major -
   promoted), the figure OCAMLRUNPARAM=v=0x400 reports at exit. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted
