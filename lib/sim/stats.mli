(** Measurement primitives: counters, rate meters, and histograms.

    The benchmark harness reads packet rates (Mpps) and latency
    distributions from these.  All are plain mutable records updated from
    inside fibers. *)

module Counter : sig
  type t

  val create : unit -> t
  (** [create ()] is a zero counter. *)

  val incr : t -> unit
  (** Add one. *)

  val value : t -> int
  (** Current value. *)

  val rate : t -> over:int64 -> float [@@test_only]
  (** [rate c ~over] is events per second over a window of [over]
      picoseconds. *)
end

module Histogram : sig
  type t
  (** Log-2-bucketed histogram of non-negative [int64] samples
      (latencies in picoseconds, queue depths, ...). *)

  val create : string -> t
  val observe_i : t -> int -> unit
  (** [observe_i h v] records the native-int sample [v] — the
      allocation-free form the per-packet paths need (an [int64]
      argument is a box per call). *)

  val count : t -> int
  val mean : t -> float

  val max_value : t -> int64
  (** Largest observed sample. *)

  val percentile : t -> float -> int64
  (** [percentile h p] is an upper bound on the [p]-quantile ([0 <= p <= 1])
      given bucket resolution. *)

  val pp : Format.formatter -> t -> unit
  (** One-line summary: count/mean/p50/p99/max. *)
end

module Series : sig
  type t
  (** An append-only (x, y) series collected by a sweep, printable as the
      rows of a paper figure. *)

  val create : name:string -> x_label:string -> y_label:string -> t
  val add : t -> x:float -> y:float -> unit
  val points : t -> (float * float) list
  val name : t -> string
  val x_label : t -> string
  val y_label : t -> string

  val pp : Format.formatter -> t -> unit
  (** Render as an aligned two-column table with an ASCII spark column. *)
end
