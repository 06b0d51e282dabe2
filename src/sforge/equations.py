"""Splice equations: admissible monomials, the congruence condition,
generic coefficient rows, and emission of the (t-2)-equation system.

For each node v of the splice diagram and each incident edge e, an
admissible monomial is a monomial in the variables of the leaves beyond
e whose total weight (under the linking-number weights l_vw) equals the
node weight d_v. The congruence condition asks for a choice of one
monomial per edge, all transforming by one common character of the
discriminant group; the emitted system takes delta_v - 2 generic linear
combinations of the chosen monomials per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .discgroup import CharacterAssignment, leaf_characters
from .errors import (
    ConditionsNotMetError,
    NoNodesError,
    SemigroupConditionError,
)
from .graph import ResolutionGraph
from .intmat import IntMatrix, determinant
from .poly import Polynomial
from .splice import (
    SpliceDiagram,
    SemigroupWitness,
    linking_numbers,
    node_weight,
    semigroup_condition,
    to_splice_diagram,
)

__all__ = [
    "NodeSystem",
    "EquationsPackage",
    "CongruenceResult",
    "admissible_monomials",
    "congruence_condition",
    "generic_coefficients",
    "build_splice_equations",
    "bci_exponents",
    "check_equivariance",
]


@dataclass(frozen=True)
class NodeSystem:
    """Equations attached to one node."""

    node_id: str
    weight: int  # d_v
    variable_weights: dict  # leaf id -> l_vw, for every leaf
    directions: tuple  # direction labels, in canonical edge order
    monomials: tuple  # chosen exponent map per edge, same order
    coefficients: IntMatrix  # (delta-2) x delta generic rows
    character: tuple  # the common character of the monomials
    equations: tuple  # the delta-2 Polynomials


@dataclass(frozen=True)
class EquationsPackage:
    variables: tuple  # leaf ids, declaration order
    equations: tuple  # all t-2 equations, grouped by node
    nodes: tuple  # NodeSystem per node, declaration order
    characters: CharacterAssignment


@dataclass(frozen=True)
class CongruenceResult:
    holds: bool
    node_characters: dict  # node id -> chosen character vector
    node_monomials: dict  # node id -> {direction label: exponent map}
    failures: tuple  # node ids with no common character


def admissible_monomials(
    diagram: SpliceDiagram,
    v: str,
    edge,
    character=None,
    chars: CharacterAssignment = None,
    witness: SemigroupWitness = None,
):
    """Exponent maps of the admissible monomials at (v, edge), in the
    lexicographic order the witnesses come in (see SemigroupWitness);
    optionally filtered to a given character (which requires the leaf
    CharacterAssignment)."""
    if witness is None:
        witness = semigroup_condition(diagram)
    sols = witness.solutions[(v, edge.index)]
    if character is not None:
        if chars is None:
            raise ValueError("character filtering needs a CharacterAssignment")
        character = tuple(character)
        return [a for a in sols if chars.monomial_character(a) == character]
    return list(sols)


def congruence_condition(g: ResolutionGraph) -> CongruenceResult:
    """Per node, is there one character shared by an admissible monomial
    in every direction? Search runs over the (finite) character sets
    attained by each direction's witness monomials."""
    diagram = to_splice_diagram(g)
    if not diagram.has_nodes:
        raise NoNodesError("no nodes: cyclic quotient case")
    witness = semigroup_condition(diagram)
    if not witness.holds:
        raise SemigroupConditionError(
            "semigroup condition fails at %s"
            % "; ".join("%s %s" % f for f in witness.failures)
        )
    chars = leaf_characters(g)
    return _congruence_from_parts(diagram, witness, chars)


def _congruence_from_parts(diagram, witness, chars):
    """congruence_condition from its parts. Each direction's witnesses
    come in lexicographic order (see SemigroupWitness), so the monomial
    kept for each character is the lexicographically first."""
    modulus = chars.modulus
    node_characters = {}
    node_monomials = {}
    failures = []
    for v in diagram.nodes:
        edges = diagram.incident_edges(v)
        per_edge = []
        for e in edges:
            char_map = {}
            for a in witness.solutions[(v, e.index)]:
                char_map.setdefault(chars.monomial_residue(a), a)
            per_edge.append(char_map)
        common = set(per_edge[0])
        for cm in per_edge[1:]:
            common &= set(cm)
        if not common:
            failures.append(v)
            continue
        # residues share the scale e, so their order is that of the
        # Fraction characters r / e
        chosen = min(common)
        node_characters[v] = tuple(Fraction(r, modulus) for r in chosen)
        node_monomials[v] = {
            diagram.direction_label(v, e): cm[chosen]
            for e, cm in zip(edges, per_edge)
        }
    return CongruenceResult(
        holds=not failures,
        node_characters=node_characters,
        node_monomials=node_monomials,
        failures=tuple(failures),
    )


def generic_coefficients(delta: int) -> IntMatrix:
    """The (delta-2) x delta Vandermonde segment a[i][e] = (e+1)^i.

    Every maximal minor is a Vandermonde determinant on distinct
    points, hence nonzero; this is re-verified exactly before the
    matrix is returned.
    """
    if delta < 3:
        raise ValueError("node valency must be at least 3")
    rows = delta - 2
    m = IntMatrix(
        [[(e + 1) ** i for e in range(delta)] for i in range(rows)]
    )
    for cols in combinations(range(delta), rows):
        minor = IntMatrix(
            [[m[i, j] for j in cols] for i in range(rows)]
        )
        if determinant(minor) == 0:
            raise AssertionError("generic coefficient minor vanished")
    return m


def build_splice_equations(g: ResolutionGraph) -> EquationsPackage:
    """Emit the t-2 splice equations for a graph satisfying the
    semigroup and congruence conditions."""
    return _build_splice_equations(g, None)


def _build_splice_equations(g, chars):
    """build_splice_equations(g), reusing chars = leaf_characters(g)
    when the caller has them; with None they are built once the
    semigroup condition holds."""
    diagram = to_splice_diagram(g)
    if not diagram.has_nodes:
        raise NoNodesError("no nodes: cyclic quotient case")
    witness = semigroup_condition(diagram)
    if not witness.holds:
        raise ConditionsNotMetError(
            "semigroup condition fails at %s"
            % "; ".join("%s %s" % f for f in witness.failures)
        )
    if chars is None:
        chars = leaf_characters(g)
    cong = _congruence_from_parts(diagram, witness, chars)
    if not cong.holds:
        raise ConditionsNotMetError(
            "congruence condition fails at node%s %s"
            % ("s" if len(cong.failures) > 1 else "", ", ".join(cong.failures))
        )
    variables = diagram.leaves
    systems = []
    equations = []
    for v in diagram.nodes:
        edges = diagram.incident_edges(v)
        delta = len(edges)
        coeffs = generic_coefficients(delta)
        dv = node_weight(diagram, v)
        monomials = tuple(
            cong.node_monomials[v][diagram.direction_label(v, e)]
            for e in edges
        )
        polys = [
            Polynomial.monomial(variables, a) for a in monomials
        ]
        node_eqs = []
        for i in range(delta - 2):
            eq = Polynomial.zero(variables)
            for pos, p in enumerate(polys):
                eq = eq + coeffs[i, pos] * p
            node_eqs.append(eq)
        var_weights = linking_numbers(diagram, v)
        system = NodeSystem(
            node_id=v,
            weight=dv,
            variable_weights=var_weights,
            directions=tuple(diagram.direction_label(v, e) for e in edges),
            monomials=monomials,
            coefficients=coeffs,
            character=cong.node_characters[v],
            equations=tuple(node_eqs),
        )
        systems.append(system)
        equations.extend(node_eqs)
    pkg = EquationsPackage(
        variables=variables,
        equations=tuple(equations),
        nodes=tuple(systems),
        characters=chars,
    )
    _verify_package(pkg)
    return pkg


def _verify_package(pkg):
    if len(pkg.equations) != len(pkg.variables) - 2:
        raise AssertionError("expected t-2 equations")
    for node in pkg.nodes:
        for eq in node.equations:
            if eq.weighted_degree(node.variable_weights) != node.weight:
                raise AssertionError(
                    "equation at %r is not homogeneous of the node weight"
                    % node.node_id
                )
    if not check_equivariance(pkg):
        raise AssertionError("emitted equations are not equivariant")


def bci_exponents(g: ResolutionGraph):
    """For a one-node (star-shaped) diagram, the Brieskorn exponents:
    the node's edge weights, aligned with the leaf variable order."""
    diagram = to_splice_diagram(g)
    if len(diagram.nodes) != 1:
        raise ValueError(
            "BCI exponents need a diagram with exactly one node, got %d"
            % len(diagram.nodes)
        )
    v = diagram.nodes[0]
    by_leaf = {}
    for e in diagram.incident_edges(v):
        by_leaf[e.other(v)] = diagram.weight(v, e)
    return tuple(by_leaf[w] for w in diagram.leaves)


def check_equivariance(pkg: EquationsPackage) -> bool:
    """Every equation weighted-homogeneous for its node and with a
    single character across its monomials (exact comparison)."""
    for node in pkg.nodes:
        for eq in node.equations:
            if eq.is_zero():
                return False
            if not eq.is_weighted_homogeneous(node.variable_weights):
                return False
            seen = {
                pkg.characters.monomial_residue(m)
                for m in eq.support_maps()
            }
            if len(seen) != 1:
                return False
    return True
