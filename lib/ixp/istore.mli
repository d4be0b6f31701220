(** A MicroEngine instruction store (paper sections 2.2, 4.3, 4.5).

    4 KB per MicroEngine.  The router infrastructure occupies a fixed
    region; what remains (650 slots on this silicon) holds VRP extensions,
    laid out as Figure 11: per-flow forwarders ending in an indirect jump,
    then general forwarders stored in reverse order from the end so control
    falls from one to the next, with minimal IP always last.

    Rewriting is expensive — two memory accesses per instruction, so ~800
    cycles for a 10-instruction forwarder and over 80,000 for the whole
    store — and requires disabling the MicroEngine, which is why the
    interface supports incremental installs. *)

type t

type region = Per_flow | General

val create : Config.t -> t

val capacity_vrp : t -> int
(** Instruction slots available to extensions (650 by default). *)

val used : t -> int [@@test_only]
(** Slots currently allocated to extensions. *)

val install : t -> region -> slots:int -> (int, string) result
(** [install st region ~slots] reserves [slots] instructions and
    returns the offset handle, or [Error] if the store is full.  General
    forwarders stack from the end; per-flow forwarders from the start. *)

val remove : t -> int -> unit
(** [remove st handle] frees an installed block (no-op if unknown). *)

val write_cost_cycles : t -> slots:int -> int [@@test_only]
(** MicroEngine-disabled cycles needed to write [slots] instructions. *)
