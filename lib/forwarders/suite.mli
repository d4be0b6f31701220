(** The Table 5 catalogue and the synthetic suites the robustness
    experiments run (paper sections 4.4, 4.7). *)

val table5 : (string * Router.Forwarder.t) list
(** Every example data forwarder, in the paper's Table 5 order. *)

val full_budget_suite :
  budget:Router.Vrp.budget -> unit -> Router.Forwarder.t list
(** A synthetic general-forwarder suite sized to "utilize the full VRP
    budget" (section 4.7's first robustness experiment): the Table 5
    general forwarders plus a padding forwarder consuming whatever cycles
    and SRAM transfers remain after admission's branch-delay inflation
    (a factor of 1.05). *)
