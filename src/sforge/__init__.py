"""sforge: resolution graphs of normal surface singularities, their
splice diagrams, discriminant groups, splice equations and quotient
invariants, all in exact arithmetic."""

from .errors import (
    CapExceededError,
    ConditionsNotMetError,
    NoNodesError,
    NonMinimalRepresentableError,
    NotNegativeDefiniteError,
    NotQhsTreeError,
    ParseError,
    PreconditionError,
    SemigroupConditionError,
    SforgeError,
    SingularMatrixError,
)
from .intmat import (
    IntMatrix,
    SnfResult,
    adjugate,
    determinant,
    invert_rational,
    is_negative_definite,
    smith_normal_form,
    solve_rational,
)
from .graph import (
    Classification,
    Cycle,
    RationalCycle,
    ResolutionGraph,
    TreeForm,
    Vertex,
    blow_down_minimal,
    canonical_cycle,
    classify,
    fundamental_cycle,
    intersection_matrix,
    parse_graph,
    serialize_graph,
)
from .splice import (
    SemigroupWitness,
    SpliceDiagram,
    SpliceEdge,
    edge_determinant,
    is_zhs,
    linking_number,
    linking_numbers,
    node_weight,
    semigroup_condition,
    to_splice_diagram,
    witnesses,
)
from .discgroup import (
    CharacterAssignment,
    DiscriminantData,
    discriminant_group,
    dual_class_order,
    invariant_factors,
    leaf_characters,
)
from .poly import Polynomial, parse_polynomial
from .equations import (
    CongruenceResult,
    EquationsPackage,
    NodeSystem,
    build_splice_equations,
    check_equivariance,
    congruence_condition,
    generic_coefficients,
)
from .invariants import (
    InvariantBasis,
    MembershipCertificate,
    invariant_generators,
    membership_bounded,
    toric_relations,
)

__version__ = "0.1.0"
