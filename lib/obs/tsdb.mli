(** Persistent telemetry store: append-only segment files of series
    records with downsampling compaction.

    The weekly service survives restarts, so its operational series must
    too.  A store is a directory of sorted, sealed [.pwts] segments of
    the shared [Obs.Segment] layer ("PWTS" magic); appends buffer in
    memory until {!flush} writes one new segment, and every
    [compact_every] flushes {!compact} merges segments, applying
    retention and (when a [resolution] is set) folding raw points older
    than the newest bucket boundary into per-bucket aggregates whose
    count/sum/min/max/last equal a recomputation over the raw points
    they replace.

    Readers validate as they go and raise {!Corrupt} on a damaged
    sealed segment; an {e unsealed} segment left by a killed writer is
    not corrupt — its complete record prefix is readable and any torn
    tail record is dropped ({!Segment.recovered_partial}), which
    {!open_store} uses to repair such segments in place. *)

type record = {
  t_name : string;
  t_labels : Registry.labels;  (** canonically sorted *)
  t_at : float;  (** raw timestamp, or bucket start *)
  t_res : float;  (** 0 = raw point; else the bucket width, seconds *)
  t_count : int;
  t_sum : float;
  t_min : float;
  t_max : float;
  t_last : float;
  t_last_at : float;
}

exception Corrupt of string
(** [Obs.Segment.Corrupt] itself, shared with the flow store. *)

val raw_point : name:string -> ?labels:Registry.labels -> at:float -> float -> record

val is_raw : record -> bool

val point_of_record : record -> float * float
(** The [(at, value)] a record contributes to a rendered series: a raw
    point is itself; a bucket stands in with its last raw point. *)

val record_end : record -> float
(** A record's time extent (raw: [t_at]; bucket: [t_at + t_res]). *)

val compare_record : record -> record -> int
(** Segment sort order: name, labels, time, resolution. *)

(** One [.pwts] segment file; the reader validates, recovers and
    raises as the shared [Obs.Segment] layer's does. *)
module Segment : sig
  val write : string -> record list -> int
  (** Sort, write and seal a segment; returns the record count. *)

  type reader

  val open_reader : string -> reader
  val sealed : reader -> bool

  val recovered_partial : reader -> bool
  (** An unsealed segment's torn tail record was dropped. *)

  val next : reader -> record option
  val close : reader -> unit

  val read_all : string -> (record list * bool, string) result
  (** Every record plus the recovered-partial flag, or the [Corrupt]
      message. *)

  val verify : string -> (Segment.status, string) result
end

val scan : string list -> (record -> unit) -> int
(** Stream every record of the given segments merged in canonical
    order; returns the record count.  @raise Corrupt as {!Segment.next}. *)

(** {1 Query predicates} *)

type predicate

val no_predicate : predicate
val predicate : ?since:float -> ?until:float -> ?name:string -> ?labels:Registry.labels -> unit -> predicate
val matches : predicate -> record -> bool

val segments_in_dir : string -> string list
(** The [.pwts] segment paths in a directory, sorted; [] when the
    directory does not exist. *)

(** {1 Store handle} *)

type t

val open_store :
  ?retention:float ->
  ?resolution:float ->
  ?compact_every:int ->
  ?log:(string -> unit) ->
  dir:string ->
  unit ->
  t
(** Open (or create) a store directory, repairing any unsealed segments
    a killed writer left behind.  [retention] drops records whose end
    falls more than that many seconds behind the newest timestamp at
    compaction; [resolution] enables downsampling; [compact_every]
    (default 2, min 2) triggers compaction every that many flushes. *)

val dir : t -> string

val recovered_segments : t -> int
(** Unsealed segments repaired at open. *)

val segments : t -> string list
val buffered : t -> int

val append : t -> record list -> unit
val append_point : t -> name:string -> ?labels:Registry.labels -> at:float -> float -> unit

val bucket_start : resolution:float -> float -> float

val compact : t -> unit
val flush : t -> int
(** Write buffered records as one sealed segment (compacting on
    cadence); returns the records flushed. *)

(** {1 Reading} *)

val fold : ?pred:predicate -> init:'a -> f:('a -> record -> 'a) -> string list -> 'a

val query : ?pred:predicate -> string list -> (string * Registry.labels * record list) list
(** Matching records grouped per series, series in canonical order. *)

val query_store : ?pred:predicate -> t -> (string * Registry.labels * record list) list
(** {!query} over the store's segments, holding the store lock so a
    concurrent flush/compact cannot delete segments mid-scan. *)

val tail : ?pred:predicate -> n:int -> string list -> (string * Registry.labels * (float * float) list) list
(** The last [n] rendered points per series — what a restarted service
    re-arms alerts and warms memory windows from. *)

val tail_store : ?pred:predicate -> n:int -> t -> (string * Registry.labels * (float * float) list) list
