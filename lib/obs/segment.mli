(** The segment layer under both on-disk stores: sorted, sealed binary
    segment files and a bounded-memory k-way merge over them.

    A segment is a 10-byte header — 4-byte magic, u16 version (1), u32
    record count — then the records in the codec's order, all
    little-endian.  The writer streams the records behind an
    {e unsealed} count of [0xFFFFFFFF] and back-patches the real count
    once they are all out (the {e seal}).  Readers validate as they go:
    a damaged sealed segment raises {!Corrupt} naming the file and the
    record, while an unsealed one, which only a killed writer leaves,
    reads as its complete record prefix, a torn final record dropped. *)

exception Corrupt of string
(** A segment failed validation; the message starts with its path. *)

(** {1 Codec helpers} *)

type input
(** The byte source a codec decodes one record from. *)

val read_exact : input -> int -> string -> Bytes.t
(** [read_exact inp n what] reads the record's next [n] bytes.  A short
    read is {!Corrupt} ("[what] cut short at record i/n") on a sealed
    segment and ends an unsealed one at the previous record. *)

val read_string : input -> string -> string
(** A u16-length-prefixed string, as {!add_string} writes it. *)

val add_string : what:string -> Buffer.t -> string -> unit
(** @raise Invalid_argument (prefixed with [what]) past 65535 bytes. *)

val invalid : input -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} as "[path]: [message] at record [i]". *)

(** A store's record layout. *)
module type CODEC = sig
  type record

  val magic : string
  (** Four bytes. *)

  val what : string
  (** The store, in "not a Patchwork [what] segment". *)

  val encode : Buffer.t -> record -> unit

  val decode : input -> record
  (** Read one record and validate its fields. *)

  val compare : record -> record -> int
  (** Segment order: the writer sorts by it, the merge follows it. *)

  val misordered : record -> record -> string option
  (** [misordered prev r] says why [r] may not follow [prev] within a
      segment, or [None] when it may. *)
end

type status = {
  records : int;  (** complete records read *)
  sealed : bool;
  torn : bool;  (** an unsealed segment's partial final record was dropped *)
}

module Make (C : CODEC) : sig
  val write : string -> C.record list -> int
  (** Sort the records, write and seal one segment; returns its size in
      bytes. *)

  type reader
  (** A streaming cursor over one segment; holds one record of state. *)

  val open_reader : string -> reader
  (** @raise Corrupt on a missing file, a short header, or a bad magic
      or version. *)

  val next : reader -> C.record option
  (** @raise Corrupt on a malformed or misordered record, or on
      truncation or trailing bytes in a sealed segment. *)

  val close : reader -> unit

  val sealed_count : reader -> int option
  (** The header's record count; [None] when unsealed. *)

  val records_read : reader -> int
  val torn : reader -> bool

  val fold : string -> init:'a -> f:('a -> C.record -> 'a) -> 'a * status
  (** Read one whole segment.  @raise Corrupt as {!next}. *)

  val read_all : string -> (C.record list * bool, string) result
  (** Every record and the torn flag, or the {!Corrupt} message. *)

  val verify : string -> (status, string) result
  (** Validate one whole segment without keeping its records. *)

  val scan : string list -> (C.record -> unit) -> int
  (** Stream the records of all [paths] merged in [C.compare] order,
      equal records in the order of [paths]; returns the record count.
      @raise Corrupt as {!next}. *)
end

val segments_in_dir : ext:string -> string -> string list
(** The files named [*ext] in a directory, sorted by name; [[]] when it
    does not exist. *)

val mkdir_p : string -> unit
