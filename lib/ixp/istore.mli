(** A MicroEngine instruction store (paper sections 2.2, 4.3, 4.5).

    4 KB per MicroEngine.  The router infrastructure occupies a fixed
    region; what remains (650 slots on this silicon) holds VRP extensions.
    Only the slot count is modelled: the paper's Figure 11 layout
    (per-flow forwarders from the start, general forwarders stacked from
    the end) places blocks but cannot change whether they fit, so no
    block records where it sits.

    Rewriting is expensive — two memory accesses per instruction, so ~800
    cycles for a 10-instruction forwarder and over 80,000 for the whole
    store — and requires disabling the MicroEngine, which is why the
    interface supports incremental installs. *)

type t

val create : Config.t -> t

val capacity_vrp : t -> int
(** Instruction slots available to extensions (650 by default). *)

val used : t -> int [@@test_only]
(** Slots currently allocated to extensions. *)

val install : t -> slots:int -> (int, string) result
(** [install st ~slots] reserves [slots] instructions and returns a
    handle for {!remove}, or [Error] if the store is full. *)

val remove : t -> int -> unit
(** [remove st handle] frees an installed block (no-op if unknown). *)

val write_cost_cycles : t -> slots:int -> int [@@test_only]
(** MicroEngine-disabled cycles needed to write [slots] instructions. *)
