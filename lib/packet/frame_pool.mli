(** Generation-tagged frame recycling pool.

    Closes the allocation loop of the steady-state data path: traffic
    generators check frames out with {!take}, the router gives them back
    through {!give} when its buffer pool releases them, and the pool
    detects double-frees and foreign frames exactly via per-slot
    generations stamped into {!Frame.t.pool_gen} ([~debug:true] raises,
    otherwise they are counted in {!bad_gives}). *)

type t

val create : ?debug:(bool[@test_only]) -> ?max_frames:int -> frame_bytes:int -> unit -> t
(** [create ~frame_bytes ()] is an empty pool minting frames with
    [frame_bytes] bytes of capacity on demand, at most [max_frames]
    (default 4096) of them.  [debug] (default [false]) turns bad
    {!give}s into [Invalid_argument] instead of a counter bump. *)

val take : t -> len:int -> Frame.t
(** [take t ~len] is a zeroed frame of [len] live bytes, recycled when
    possible — indistinguishable from [Frame.alloc len] except for the
    pool tag.  Requests longer than [frame_bytes], or arriving when the
    pool is dry and at its mint cap, fall back to a plain unpooled
    allocation (counted in {!misses}). *)

val give : t -> Frame.t -> unit
(** [give t f] returns [f] to the pool.  Unpooled frames (copies, plain
    allocations) are ignored, so every release path can funnel here.
    A stale or double give is caught by the generation check. *)

val minted : t -> int
(** Frames ever created by the pool. *)

val outstanding : t -> int [@@test_only]
(** Frames currently checked out. *)

val misses : t -> int
(** Takes served by fresh allocation (mint or fallback). *)

val recycles : t -> int
(** Takes served from the free stack. *)

val bad_gives : t -> int
(** Stale, double, or foreign gives detected (and refused). *)

val check : t -> string option
(** Conservation invariant ([outstanding + free = minted]), in the shape
    {!Fault.Invariant.register} expects. *)
