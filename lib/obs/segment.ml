(* The segment layer under both on-disk stores: framing, sealing, crash
   recovery, validation and the stable k-way merge (see segment.mli).
   A store supplies only its record codec. *)

exception Corrupt of string

let corrupt path fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt (path ^ ": " ^ msg))) fmt

let version = 1
let header_len = 10
let unsealed_marker = 0xFFFFFFFF

type input = {
  path : string;
  ic : in_channel;
  length : int;
  sealed_count : int option; (* None while unsealed: read to EOF *)
  mutable read : int;
  mutable torn : bool;
  mutable closed : bool;
}

(* A partial final record on an unsealed segment. *)
exception Torn_tail

let read_exact inp n what =
  let b = Bytes.create n in
  (try really_input inp.ic b 0 n
   with End_of_file -> (
     match inp.sealed_count with
     | Some count ->
       corrupt inp.path "truncated segment: %s cut short at record %d/%d" what
         (inp.read + 1) count
     | None ->
       (* A kill mid-write leaves a partial final record; it never made
          it to the store, so drop it rather than refuse the segment. *)
       raise Torn_tail));
  b

let read_string inp what =
  let len = Bytes.get_uint16_le (read_exact inp 2 (what ^ " length")) 0 in
  Bytes.unsafe_to_string (read_exact inp len what)

let add_string ~what buf s =
  if String.length s > 0xFFFF then
    invalid_arg (what ^ ": string longer than 65535 bytes");
  Buffer.add_uint16_le buf (String.length s);
  Buffer.add_string buf s

let invalid inp fmt =
  Printf.ksprintf
    (fun msg -> corrupt inp.path "%s at record %d" msg (inp.read + 1))
    fmt

module type CODEC = sig
  type record

  val magic : string
  val what : string
  val encode : Buffer.t -> record -> unit
  val decode : input -> record
  val compare : record -> record -> int
  val misordered : record -> record -> string option
end

type status = { records : int; sealed : bool; torn : bool }

module Make (C : CODEC) = struct
  type reader = { input : input; mutable prev : C.record option }

  (* Records are encoded before the file is opened; the header carries
     the unsealed marker until every record is out, so a crash mid-write
     leaves an unsealed segment whose complete prefix still reads. *)
  let write path records =
    let records = List.sort C.compare records in
    let buf = Buffer.create 65536 in
    Buffer.add_string buf C.magic;
    Buffer.add_uint16_le buf version;
    Buffer.add_int32_le buf (Int32.of_int unsealed_marker);
    List.iter (C.encode buf) records;
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Buffer.output_buffer oc buf;
        flush oc;
        (* Seal: back-patch the record count. *)
        seek_out oc 6;
        let count = Bytes.create 4 in
        Bytes.set_int32_le count 0 (Int32.of_int (List.length records));
        output_bytes oc count);
    Buffer.length buf

  let open_reader path =
    let ic =
      try open_in_bin path
      with Sys_error msg -> raise (Corrupt (path ^ ": " ^ msg))
    in
    let fail fmt =
      close_in_noerr ic;
      corrupt path fmt
    in
    let length = in_channel_length ic in
    let header = Bytes.create header_len in
    (try really_input ic header 0 header_len
     with End_of_file ->
       fail "truncated segment: %d-byte file is shorter than the header"
         length);
    if Bytes.sub_string header 0 4 <> C.magic then
      fail "bad magic (not a Patchwork %s segment)" C.what;
    let v = Bytes.get_uint16_le header 4 in
    if v <> version then fail "unsupported segment version %d" v;
    let count = Int32.to_int (Bytes.get_int32_le header 6) land 0xFFFFFFFF in
    let sealed_count = if count = unsealed_marker then None else Some count in
    {
      input =
        {
          path;
          ic;
          length;
          sealed_count;
          read = 0;
          torn = false;
          closed = false;
        };
      prev = None;
    }

  let close r =
    if not r.input.closed then begin
      r.input.closed <- true;
      close_in_noerr r.input.ic
    end

  let sealed_count r = r.input.sealed_count
  let records_read r = r.input.read
  let torn r = r.input.torn

  let finish r =
    close r;
    None

  let next r =
    let inp = r.input in
    if inp.closed then None
    else
      match inp.sealed_count with
      | Some count when inp.read >= count -> (
        match input_char inp.ic with
        | _ -> corrupt inp.path "trailing garbage after %d records" inp.read
        | exception End_of_file -> finish r)
      | None when pos_in inp.ic >= inp.length -> finish r
      | _ -> (
        match C.decode inp with
        | exception Torn_tail ->
          inp.torn <- true;
          finish r
        | record ->
          (match r.prev with
          | Some prev -> (
            match C.misordered prev record with
            | Some detail ->
              corrupt inp.path "segment not sorted at record %d (%s)"
                (inp.read + 1) detail
            | None -> ())
          | None -> ());
          r.prev <- Some record;
          inp.read <- inp.read + 1;
          Some record)

  let fold path ~init ~f =
    let r = open_reader path in
    Fun.protect
      ~finally:(fun () -> close r)
      (fun () ->
        let rec go acc =
          match next r with None -> acc | Some x -> go (f acc x)
        in
        let acc = go init in
        let { read; sealed_count; torn; _ } = r.input in
        (acc, { records = read; sealed = sealed_count <> None; torn }))

  let read_all path =
    match fold path ~init:[] ~f:(fun acc x -> x :: acc) with
    | acc, st -> Ok (List.rev acc, st.torn)
    | exception Corrupt msg -> Error msg

  let verify path =
    match fold path ~init:() ~f:(fun () _ -> ()) with
    | (), st -> Ok st
    | exception Corrupt msg -> Error msg

  (* Min-heap over open readers ordered by each reader's head record;
     equal records tie-break on reader index, so the merge is a stable,
     deterministic interleave whatever the heap's internal layout.  One
     record of look-ahead per segment is the whole in-flight state. *)
  type entry = { mutable head : C.record; reader : reader; index : int }
  type heap = { a : entry array; mutable n : int }

  let lt x y =
    match C.compare x.head y.head with 0 -> x.index < y.index | c -> c < 0

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.n && lt h.a.(l) h.a.(!m) then m := l;
    if r < h.n && lt h.a.(r) h.a.(!m) then m := r;
    if !m <> i then begin
      let tmp = h.a.(i) in
      h.a.(i) <- h.a.(!m);
      h.a.(!m) <- tmp;
      sift_down h !m
    end

  let scan paths f =
    let readers = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter close !readers)
      (fun () ->
        List.iter (fun p -> readers := open_reader p :: !readers) paths;
        let entries =
          List.rev !readers
          |> List.mapi (fun index reader ->
                 Option.map (fun head -> { head; reader; index }) (next reader))
          |> List.filter_map Fun.id
        in
        let h = { a = Array.of_list entries; n = List.length entries } in
        for i = (h.n / 2) - 1 downto 0 do
          sift_down h i
        done;
        let scanned = ref 0 in
        while h.n > 0 do
          let e = h.a.(0) in
          incr scanned;
          f e.head;
          (* Advance the minimum to its reader's next record, dropping
             the entry when the segment is exhausted. *)
          (match next e.reader with
          | Some r -> e.head <- r
          | None ->
            h.n <- h.n - 1;
            h.a.(0) <- h.a.(h.n));
          sift_down h 0
        done;
        !scanned)
end

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let segments_in_dir ~ext dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ext)
    |> List.sort compare
    |> List.map (Filename.concat dir)
