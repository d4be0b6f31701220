(** Test-and-set spin lock over a shared memory channel.

    The paper rejects this mechanism: "our experiments with this strategy
    reveal performance-crippling memory contention when many contexts
    attempt to acquire the lock at the same time" (section 3.4.2).  We keep
    it as the ablation baseline against {!Mutex} (hardware mutex) and
    {!Token_ring}.

    Every acquisition attempt — successful or not — runs the caller-supplied
    [attempt] thunk, which is expected to charge one test-and-set access on
    the contended memory channel.  Failed attempts retry after [retry_ps]. *)

type t

val create : engine:Engine.t -> retry_ps:int64 -> unit -> t
(** [create ~engine ~retry_ps ()] is an unlocked spin lock whose failed
    attempts retry after [retry_ps] on [engine]. *)

val lock : t -> attempt:(unit -> unit) -> unit
(** [lock l ~attempt] spins, charging [attempt] per try, until acquired. *)

val unlock : t -> attempt:(unit -> unit) -> unit
(** [unlock l ~attempt] releases, charging one memory access. *)

val attempts : t -> int [@@test_only]
(** Total test-and-set operations issued (the memory-traffic witness). *)

val acquisitions : t -> int [@@test_only]
(** Successful acquisitions. *)
