(** The control interface (paper section 4.5):

    {v
      fid = install(key, fwdr, size, where)
      remove(fid)
      data = getdata(fid)
      setdata(fid, data)
    v}

    The IXP exports this interface to the Pentium; the operations are
    implemented on the StrongARM, which maintains the table of installed
    forwarders (SRAM state address, function reference, key) and
    manipulates the MicroEngine ISTOREs.  Admission control (section 4.6)
    gates every install. *)

type where = ME | SA | PE

type t

val create :
  ?admission:Admission.t ->
  chip:Ixp.Chip.t ->
  classifier:Classifier.t ->
  input_mes:int list ->
  unit ->
  t
(** [create ~chip ~classifier ~input_mes ()] manages installs for the given
    router.  [input_mes] are the MicroEngines whose ISTOREs hold VRP
    extensions (code is replicated into each, as the paper loads "the
    ISTORE of all the input contexts"). *)

val register_sa_boot_forwarder : t -> Forwarder.t -> unit
(** The StrongARM "boots with a fixed set of forwarders, and the install
    function simply binds one of them to a flow" (section 4.5 footnote).
    Register the boot set before installing with [where = SA]. *)

val set_pe_hooks :
  t -> add:(fid:int -> Classifier.entry -> unit) -> remove:(fid:int -> unit) -> unit
(** Wire the Pentium's proportional-share client management. *)

val install :
  t ->
  key:Packet.Flow.t ->
  fwdr:Forwarder.t ->
  where:where ->
  ?expected_pps:float ->
  unit ->
  (int, string list) result
(** Admission-check and bind a data forwarder; returns its [fid].
    [expected_pps] is required for [PE] installs (the Pentium admission
    test multiplies it by the forwarder's cycle cost).  A flow key that
    already has a per-flow forwarder is refused, naming the bound fid:
    the classifier dispatches one forwarder per key. *)

val remove : t -> int -> (unit, string) result
(** Unbind, free ISTORE/SRAM reservations, drop scheduler clients. *)

val getdata : t -> int -> Bytes.t option
(** Snapshot the forwarder's flow state (a copy — the control side sees a
    coherent read, as the real implementation reads SRAM over PCI). *)

val setdata : t -> int -> Bytes.t -> (unit, string) result
(** Overwrite the forwarder's flow state (length must match). *)

val find : t -> int -> Classifier.entry option
(** [fid] dispatch for the StrongARM/Pentium loops. *)

val install_cost_cycles : t -> Forwarder.t -> int
(** MicroEngine-disabled cycles an [ME] install spends rewriting ISTOREs
    (two memory accesses per instruction, section 4.5). *)

val installed : t -> (int * string * where) list

val me_load : t -> Admission.me_load
val pe_load : t -> Admission.pe_load
val sram_state_in_use : t -> int
