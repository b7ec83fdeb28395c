(* `patchwork_cli doctor`: the platform auditing its own measurement
   quality.  A battery of health checks — loss-ledger conservation,
   federation staleness, active alerts, segment-store validation sweeps,
   cache sanity — rendered as PASS/WARN/FAIL lines, against either a
   live service (`--live PORT`, over the HTTP endpoints) or an on-disk
   history (`--history DIR`, over the tsdb segments directly).

   The conservation checks recompute `offered = stored + Σ attributed`
   from the numbers themselves (never trusting a stored "conserved"
   flag), so doctor agrees with the in-process ledger by construction
   or says why not. *)

module J = Obs.Export.Json

type status = Pass | Warn | Fail

type check = { c_name : string; c_status : status; c_detail : string }

let check c_name c_status c_detail = { c_name; c_status; c_detail }

let status_label = function Pass -> "PASS" | Warn -> "WARN" | Fail -> "FAIL"
let counted n noun =
  Printf.sprintf "%d %s%s" n noun (if n = 1 then "" else "s")

let render checks =
  List.iter
    (fun c ->
      Printf.printf "%s  %-25s %s\n" (status_label c.c_status) c.c_name
        c.c_detail)
    checks;
  let count st = List.length (List.filter (fun c -> c.c_status = st) checks) in
  let fails = count Fail in
  Printf.printf "doctor: %s, %d passed, %s, %d failed\n"
    (counted (List.length checks) "check")
    (count Pass)
    (counted (count Warn) "warning")
    fails;
  fails

(* Relative conservation test, same rule as the ledger's close. *)
let conserved ~offered residual =
  Float.abs residual <= Obs.Ledger.tolerance *. Float.max 1.0 offered

let num name j = Option.bind (J.member name j) J.to_float
let str name j = Option.bind (J.member name j) J.to_str

(* --- live checks (scraping 127.0.0.1:port) -------------------------- *)

let fetch ~port path =
  match Obs.Http.get ~port path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok (status, body) -> Ok (status, body)

let check_endpoint ~port ~name path =
  match fetch ~port path with
  | Error msg -> check name Fail msg
  | Ok (200, _) -> check name Pass (path ^ " answers 200")
  | Ok (503, _) -> check name Warn (path ^ " answers 503 (not ready yet)")
  | Ok (status, _) ->
    check name Fail (Printf.sprintf "%s answers %d" path status)

(* Recompute conservation for every occasion × site in a lossmap
   payload; [] means no closed occasion yet. *)
let lossmap_violations doc =
  match J.member "occasions" doc with
  | Some (J.Arr occasions) ->
    let violations = ref [] in
    let sites = ref 0 in
    List.iter
      (fun occ ->
        let seq =
          int_of_float (Option.value ~default:(-1.0) (num "seq" occ))
        in
        match J.member "sites" occ with
        | Some (J.Arr ss) ->
          List.iter
            (fun s ->
              incr sites;
              let site = Option.value ~default:"?" (str "site" s) in
              let field outer inner =
                Option.value ~default:0.0
                  (Option.bind (J.member outer s) (num inner))
              in
              let attr inner =
                match J.member "causes" s with
                | Some (J.Arr cs) ->
                  List.fold_left
                    (fun acc c -> acc +. Option.value ~default:0.0 (num inner c))
                    0.0 cs
                | _ -> 0.0
              in
              let test kind =
                let offered = field "offered" kind in
                let residual = offered -. field "stored" kind -. attr kind in
                if not (conserved ~offered residual) then
                  violations :=
                    Printf.sprintf "occasion %d site %s: %s residual %g" seq
                      site kind residual
                    :: !violations
              in
              test "frames";
              test "bytes")
            ss
        | _ -> ())
      occasions;
    Ok (!sites, List.rev !violations)
  | _ -> Error "no occasions member in /lossmap.json"

let check_lossmap ~port =
  let name = "ledger conservation" in
  match fetch ~port "/lossmap.json" with
  | Error msg -> check name Fail msg
  | Ok (status, _) when status <> 200 ->
    check name Fail (Printf.sprintf "/lossmap.json answers %d" status)
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> check name Fail ("/lossmap.json unparseable: " ^ msg)
    | Ok doc -> (
      match lossmap_violations doc with
      | Error msg -> check name Fail msg
      | Ok (0, _) -> check name Warn "no closed occasion in the ledger yet"
      | Ok (sites, []) ->
        check name Pass
          (Printf.sprintf "offered = stored + attributed over %d site entr%s"
             sites
             (if sites = 1 then "y" else "ies"))
      | Ok (_, (v :: _ as all)) ->
        check name Fail
          (Printf.sprintf "%s; first: %s"
             (counted (List.length all) "violation")
             v)))

let check_alerts ~port =
  let name = "active alerts" in
  match fetch ~port "/alerts.json" with
  | Error msg -> check name Fail msg
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg -> check name Fail ("/alerts.json unparseable: " ^ msg)
    | Ok doc -> (
      match J.member "active" doc with
      | Some (J.Arr []) | None -> check name Pass "none active"
      | Some (J.Arr actives) ->
        let names =
          List.filter_map (fun a -> str "rule" a) actives
          |> List.sort_uniq compare
        in
        check name Warn
          (Printf.sprintf "%d active: %s" (List.length actives)
             (String.concat ", " names))
      | Some _ -> check name Fail "malformed active member"))

(* Series checks shared by the live (/series.json points) and history
   (tsdb records) paths: [value] is an element's value, [range] its
   (min, max). *)
let check_up ~suffix ~value series =
  let name = "federation up{site}" in
  let sites =
    List.filter_map
      (fun (n, ls, xs) ->
        if n <> "up" then None
        else
          Option.map
            (fun site -> (site, List.rev xs))
            (List.assoc_opt "site" ls))
      series
  in
  let down =
    List.filter_map
      (fun (site, xs) ->
        match xs with x :: _ when value x < 1.0 -> Some site | _ -> None)
      sites
  in
  if sites = [] then check name Pass "no federated sites"
  else if down = [] then
    check name Pass (counted (List.length sites) "site" ^ " up" ^ suffix)
  else check name Fail ("down" ^ suffix ^ ": " ^ String.concat ", " down)

let check_cache ~noun ~range series =
  let name = "cache hit-rate sanity" in
  let ranges =
    List.concat_map
      (fun (n, _, xs) ->
        if n = "flow_cache_hit_rate" then List.map range xs else [])
      series
  in
  let bad = List.filter (fun (lo, hi) -> lo < 0.0 || hi > 1.0) ranges in
  if ranges = [] then check name Pass "no cached lookups recorded"
  else if bad = [] then
    check name Pass (counted (List.length ranges) noun ^ " within [0, 1]")
  else check name Fail (counted (List.length bad) noun ^ " outside [0, 1]")

(* Series-backed checks share one scrape of /series.json. *)
let check_series ~port =
  match fetch ~port "/series.json" with
  | Error msg -> [ check "series endpoint" Fail msg ]
  | Ok (status, _) when status <> 200 ->
    [
      check "series endpoint" Fail
        (Printf.sprintf "/series.json answers %d" status);
    ]
  | Ok (_, body) -> (
    match J.parse body with
    | Error msg ->
      [ check "series endpoint" Fail ("/series.json unparseable: " ^ msg) ]
    | Ok doc ->
      let all = Live.series_of_json doc in
      [
        check_up ~suffix:"" ~value:snd all;
        check_cache ~noun:"point" ~range:(fun (_, v) -> (v, v)) all;
      ])

let live_checks ~port =
  [ check_endpoint ~port ~name:"service liveness" "/healthz" ]
  @ [ check_endpoint ~port ~name:"service readiness" "/readyz" ]
  @ [ check_lossmap ~port ]
  @ [ check_alerts ~port ]
  @ check_series ~port

(* --- history checks (an on-disk tsdb directory) --------------------- *)

(* One sweep over either store's segments through the shared segment
   reader: every record decoded and validated, nothing kept. *)
let sweep_segments ~name ~tails ~segments_in_dir ~verify dir =
  match segments_in_dir dir with
  | [] -> [ check name Warn (Printf.sprintf "no segments under %s" dir) ]
  | segments ->
    let corrupt = ref [] and unsealed = ref [] and records = ref 0 in
    List.iter
      (fun path ->
        match verify path with
        | Error msg -> corrupt := (path, msg) :: !corrupt
        | Ok (st : Obs.Segment.status) ->
          records := !records + st.records;
          if not st.sealed then unsealed := (path, st.torn) :: !unsealed)
      segments;
    let sweep =
      match List.rev !corrupt with
      | [] ->
        check name Pass
          (Printf.sprintf "%s, %d records valid"
             (counted (List.length segments) "segment")
             !records)
      | (path, msg) :: _ as all ->
        check name Fail
          (Printf.sprintf "%s; first: %s (%s)"
             (counted (List.length all) "corrupt segment")
             (Filename.basename path) msg)
    in
    match List.rev !unsealed with
    | [] -> [ sweep ]
    | us ->
      let torn = List.length (List.filter snd us) in
      [
        sweep;
        check tails Warn
          (Printf.sprintf "%s (killed writer; %s dropped): %s"
             (counted (List.length us) "unsealed segment")
             (counted torn "torn tail record")
             (String.concat ", "
                (List.map (fun (p, _) -> Filename.basename p) us)));
      ]

(* Conservation from persisted series alone: per (site, at, res) bucket,
   Σ ledger_offered_frames = Σ ledger_stored_frames +
   Σ loss_attributed_frames.  Works on raw points and on downsampled
   buckets alike, because compaction is sum-preserving and buckets the
   two sides of the identity identically. *)
let check_history_conservation groups =
  let name = "ledger conservation" in
  let table = Hashtbl.create 64 in
  let entry site at res =
    let key = (site, at, res) in
    match Hashtbl.find_opt table key with
    | Some e -> e
    | None ->
      let e = (ref 0.0, ref 0.0, ref 0.0) in
      Hashtbl.add table key e;
      e
  in
  let saw_ledger = ref false in
  List.iter
    (fun (n, ls, records) ->
      match List.assoc_opt "site" ls with
      | None -> ()
      | Some site ->
        let side =
          match n with
          | "ledger_offered_frames" -> Some `Offered
          | "ledger_stored_frames" -> Some `Stored
          | "loss_attributed_frames" -> Some `Attributed
          | _ -> None
        in
        (match side with
        | None -> ()
        | Some side ->
          saw_ledger := true;
          List.iter
            (fun (r : Obs.Tsdb.record) ->
              let offered, stored, attributed =
                entry site r.Obs.Tsdb.t_at r.Obs.Tsdb.t_res
              in
              let cell =
                match side with
                | `Offered -> offered
                | `Stored -> stored
                | `Attributed -> attributed
              in
              cell := !cell +. r.Obs.Tsdb.t_sum)
            records))
    groups;
  if not !saw_ledger then
    check name Warn "no ledger series in the history (older run?)"
  else begin
    let violations = ref [] in
    let cells = ref 0 in
    Hashtbl.iter
      (fun (site, at, _) (offered, stored, attributed) ->
        incr cells;
        let residual = !offered -. !stored -. !attributed in
        if not (conserved ~offered:!offered residual) then
          violations :=
            Printf.sprintf "site %s at %g: residual %g frames" site at
              residual
            :: !violations)
      table;
    match List.rev !violations with
    | [] ->
      check name Pass
        ("offered = stored + attributed over "
        ^ counted !cells "(site, time) cell")
    | v :: _ as all ->
      check name Fail
        (Printf.sprintf "%s; first: %s"
           (counted (List.length all) "violation")
           v)
  end

(* The series checks share one scan, and run only when the sweep found
   every segment readable: a corrupt one has already failed it. *)
let history_checks ~dir =
  let sweep =
    sweep_segments ~name:"tsdb segment sweep" ~tails:"tsdb unsealed tails"
      ~segments_in_dir:Obs.Tsdb.segments_in_dir
      ~verify:Obs.Tsdb.Segment.verify dir
  in
  match Obs.Tsdb.segments_in_dir dir with
  | [] -> sweep
  | segments -> (
    match Obs.Tsdb.query segments with
    | exception Obs.Tsdb.Corrupt _ -> sweep
    | groups ->
      sweep
      @ [
          check_history_conservation groups;
          check_up ~suffix:" at last scrape"
            ~value:(fun r -> snd (Obs.Tsdb.point_of_record r))
            groups;
          check_cache ~noun:"record"
            ~range:(fun (r : Obs.Tsdb.record) -> (r.t_min, r.t_max))
            groups;
        ])

(* --- optional flow-store sweep -------------------------------------- *)

let flow_store_checks ~dir =
  sweep_segments ~name:"flow-store sweep" ~tails:"flow-store unsealed tails"
    ~segments_in_dir:Analysis.Flow_store.segments_in_dir
    ~verify:Analysis.Flow_store.Segment.verify dir

(* --- entry point ----------------------------------------------------- *)

let run ?live ?history ?flow_store () =
  let checks =
    (match live with Some port -> live_checks ~port | None -> [])
    @ (match history with Some dir -> history_checks ~dir | None -> [])
    @ match flow_store with Some dir -> flow_store_checks ~dir | None -> []
  in
  if checks = [] then begin
    prerr_endline
      "doctor: nothing to check (need --live PORT, --history DIR or \
       --flow-store DIR)";
    2
  end
  else if render checks > 0 then 1
  else 0
