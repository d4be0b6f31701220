(** Packet descriptors: the 32-bit SRAM queue entries of section 3.4,
    carrying a DRAM buffer reference plus the results of classification
    ("the packet processing results and some identification information
    for the packet are then enqueued in the destination queue").

    Descriptors are recycled through a domain-local free list ({!take} /
    {!release}): they sit in queues long enough to survive minor
    collections, so allocating one per packet promotes it to the major
    heap — the steady-state promotion source the allocation budget
    forbids.  All fields are mutable native ints to make in-place reuse
    possible. *)

type level = Microengine | Strongarm | Pentium

type t = {
  mutable buf : Ixp.Buffer_pool.handle;
  mutable len : int;  (** frame length in bytes *)
  mutable in_port : int;
  mutable out_port : int;  (** classification's port choice *)
  mutable fid : int;
      (** installed-forwarder reference for SA/PE dispatch; -1 when none
          (plain forwarding) *)
  mutable arrival : int;  (** picoseconds, for latency accounting *)
  mutable pooled : bool;
      (** currently on the free list; maintained by {!take}/{!release} *)
}

val make :
  buf:Ixp.Buffer_pool.handle ->
  len:int ->
  in_port:int ->
  out_port:int ->
  arrival:int ->
  unit ->
  t
(** A fresh, unpooled descriptor (tests and slow paths), with no
    forwarder ([fid = -1]). *)

val take :
  buf:Ixp.Buffer_pool.handle ->
  len:int ->
  in_port:int ->
  out_port:int ->
  fid:int ->
  arrival:int ->
  t
(** A descriptor from the calling domain's free list, or a fresh one if
    the list is dry.  Pair with {!release} when the packet leaves the
    system. *)

val release : t -> unit
(** Return a descriptor to the calling domain's free list.  Safe to call
    twice (the second is a no-op), but the caller must not touch the
    descriptor afterwards. *)
