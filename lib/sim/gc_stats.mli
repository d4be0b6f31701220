(** Allocation telemetry: deltas of the runtime's GC counters against a
    rebased origin.  Used by the router's [sim] telemetry scope to report
    minor/major words and promotions since start, and by the allocation
    budget tests and the [alloc] bench experiment to assert words per
    forwarded packet.  All counters are per-domain in OCaml 5. *)

type t

val create : unit -> t
(** A baseline capturing the calling domain's counters as of now. *)

val minor_words : t -> float
(** Words allocated in the minor heap since the origin (exact). *)

val promoted_words : t -> float
(** Words promoted from the minor to the major heap since the origin. *)

val major_words : t -> float
(** Words allocated in (or promoted to) the major heap since origin. *)

val minor_collections : t -> int
val major_collections : t -> int
