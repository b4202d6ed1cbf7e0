(** The rescheduler (step (iii) of Figure 4): computes improved schedules
    from the reference schedule using dependence-driven heuristics, in the
    spirit of the isl/Pluto rescheduling the paper performs.

    Two cost-reducing moves are implemented, both validated against exact
    element dependences:

    - {e accumulator fusion} ([fuse_init]): the initialization of a
      contraction output is fused into the surrounding output loops of its
      multiply-accumulate statement, shrinking every element's
      write-to-last-write interval (the RAW-distance cost of
      Section IV-E);
    - {e consumer fusion} ([fuse_pointwise]): an element-wise statement
      whose reads of the previous group's product are identity maps is
      placed at coincident schedule points (the RAR/coincidence cost),
      reducing temporary live ranges. *)

type options = {
  fuse_init : bool;
  fuse_pointwise : bool;
  reduction_inner : bool;
      (** keep reduction loops innermost (true matches both HLS pipelining
          and the layout-aware consecutivity preference) *)
  permute : (string * int array) list;
      (** explicit per-statement loop orders, overriding defaults *)
}

val default : options
(** [fuse_init = true], [fuse_pointwise = false],
    [reduction_inner = true], no explicit permutations. *)

val compute : ?options:options -> Flow.program -> Schedule.t
(** Always returns a schedule accepted by {!Schedule.validate}. Legality
    with respect to element dependences is guaranteed by construction for
    programs built by {!Flow.of_kernel} and double-checked in the test
    suite against an exact-enumeration legality oracle. *)
