(** Affine functions between spaces.

    Tensor access functions, memory layouts (Section IV-D) and schedules
    (Section IV-C) are all affine functions; this module gives them exact,
    composable semantics. The forward direction never needs division, so
    evaluation and composition are exact even for non-unimodular layouts
    such as [t\[i,j,k\] -> t\[121 i + 11 j + k\]]. *)

type t

val make : Space.t -> Space.t -> Aff.t array -> t
(** [make dom cod exprs] with one expression per codomain dimension, each of
    arity [Space.arity dom]. @raise Invalid_argument on arity mismatch. *)

val identity : Space.t -> t

val constant : Space.t -> Space.t -> int array -> t
(** Maps every domain point to the given codomain point. *)

val dom : t -> Space.t
val cod : t -> Space.t
val exprs : t -> Aff.t array

val apply : t -> int array -> int array
val compose : t -> t -> t
(** [compose g f] is [g ∘ f]. @raise Invalid_argument if arities disagree. *)

val concat_outputs : ?cod:Space.t -> t -> t -> t
(** Pairing: same domain, stacked codomains ([⟨f, g⟩]). *)

val select_outputs : t -> int list -> Space.t -> t
(** Keep only the listed codomain dimensions, in the given order. *)

val graph_constraints : t -> Basic_set.constr list
(** Equalities [cod_k - expr_k = 0] over the concatenated [dom; cod] space. *)

val image : t -> Basic_set.t -> Basic_set.t
(** FM image of a basic set (may over-approximate integer points for
    non-unit coefficient maps; exact for unimodular maps). *)

val image_points : t -> Basic_set.t -> int array list
(** Exact image by enumeration (bounded domains only), deduplicated. *)

val injective_closed_form : t -> Basic_set.t -> bool
(** A sufficient test of injectivity over a bounded set, from the
    coefficients and the set's bounding box alone: [true] when each
    dimension with extent > 1 is the only varying term of some output,
    or when the map is 1-D and its strides, sorted by magnitude, each
    exceed the span of all smaller ones (a mixed radix, like a row-major
    layout). [false] means unknown. *)

val is_injective_on : t -> Basic_set.t -> bool
(** Exact injectivity over a bounded domain (used to validate layout and
    partition maps, Section IV-D): {!injective_closed_form} first,
    enumeration only when it cannot decide. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** isl-like: [{ S\[i, j\] -> A\[11 i + j\] }]. *)
