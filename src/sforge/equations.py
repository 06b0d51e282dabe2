"""Splice equations: the congruence condition, generic coefficient
rows, and emission of the (t-2)-equation system.

For each node v of the splice diagram and each incident edge e, an
admissible monomial is a monomial in the variables of the leaves beyond
e whose total weight (under the linking-number weights l_vw) equals the
node weight d_v: the semigroup witnesses of sforge.splice, streamed by
witnesses(d, v, e) and listed, cut at WITNESS_CAP, in
semigroup_condition(d).solutions[(v, e.index)]. The congruence
condition asks for a choice of one monomial per edge, all transforming
by one common character of the discriminant group; the emitted system
takes delta_v - 2 generic linear combinations of the chosen monomials
per node. In the one-node case these are the Brieskorn equations, whose
exponents are the node's splice weights d.weight(v, e).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .discgroup import (
    CharacterAssignment,
    discriminant_group,
    leaf_characters,
)
from .errors import (
    ConditionsNotMetError,
    NoNodesError,
    SemigroupConditionError,
)
from .graph import ResolutionGraph
from .intmat import IntMatrix, determinant
from .poly import Polynomial
from .splice import (
    to_splice_diagram,
    witnesses,
)

__all__ = [
    "NodeSystem",
    "EquationsPackage",
    "CongruenceResult",
    "congruence_condition",
    "generic_coefficients",
    "build_splice_equations",
    "check_equivariance",
]


class NodeSystem(NamedTuple):
    """Equations attached to one node."""

    node_id: str
    weight: int  # d_v
    variable_weights: dict  # leaf id -> l_vw, for every leaf
    directions: tuple  # direction labels, in canonical edge order
    monomials: tuple  # chosen exponent map per edge, same order
    coefficients: IntMatrix  # (delta-2) x delta generic rows
    character: tuple  # the common character of the monomials
    equations: tuple  # the delta-2 Polynomials


class EquationsPackage(NamedTuple):
    variables: tuple  # leaf ids, declaration order
    equations: tuple  # all t-2 equations, grouped by node
    nodes: tuple  # NodeSystem per node, declaration order
    characters: CharacterAssignment


class CongruenceResult(NamedTuple):
    holds: bool
    node_characters: dict  # node id -> chosen character vector
    node_monomials: dict  # node id -> {direction label: exponent map}
    failures: tuple  # node ids with no common character


def congruence_condition(g: ResolutionGraph) -> CongruenceResult:
    """Per node v, is there one character shared by an admissible
    monomial in every direction?

    At a node v the only character that admissible monomials of two
    directions can share is that of the dual class [e_v*], whose phase
    on generator c is coordinate v of c. Proof: write l for the linking
    numbers, so that (-M^-1)_xy = l_xy / |det M| and l_vv = d_v. Let B_e
    be the vertices beyond the edge e at v, w a leaf in B_e and u a
    vertex outside B_e. The path from w to u passes through v, so the
    weights off it split there and l_wu * d_v = l_wv * l_vu. If alpha is
    admissible at (v, e), sum_w alpha_w l_vw = d_v, so sum_w alpha_w
    l_wu = l_vu for every u outside B_e: delta = sum_w alpha_w e_w* -
    e_v* has zero E-coordinates outside B_e. If monomials of two
    directions e != e' share a character, delta_e - delta_e' is
    integral; its two terms have disjoint supports, so each is
    integral, and the character is [e_v*].

    So per direction the monomial kept is the first witness with the
    residue of [e_v*]; the witnesses come in lexicographic order (see
    witnesses), so it is the lexicographically first. A node fails
    when some direction has none. Each direction's one search (see
    witnesses) serves this and semigroup_condition alike."""
    diagram = to_splice_diagram(g)
    if not diagram.has_nodes:
        raise NoNodesError("no nodes: cyclic quotient case")
    empty = ["%s %s" % (v, diagram.direction_label(v, e))
             for v in diagram.nodes for e in diagram.incident_edges(v)
             if next(witnesses(diagram, v, e), None) is None]
    if empty:
        raise SemigroupConditionError(
            "semigroup condition fails at %s" % "; ".join(empty)
        )
    group = discriminant_group(g)
    chars = leaf_characters(g)
    node_characters = {}
    node_monomials = {}
    failures = []
    for v in diagram.nodes:
        p = g.index_of(v)
        character = tuple(gen[p] % 1 for gen in group.generators)
        target = chars.residues(character)
        chosen = {}
        for e in diagram.incident_edges(v):
            for a in witnesses(diagram, v, e):
                if chars.monomial_residue(a) == target:
                    chosen[diagram.direction_label(v, e)] = a
                    break
            else:
                failures.append(v)
                break
        else:
            node_characters[v] = character
            node_monomials[v] = chosen
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
    semigroup and congruence conditions; raises ConditionsNotMetError
    when either fails."""
    try:
        cong = congruence_condition(g)
    except SemigroupConditionError as err:
        raise ConditionsNotMetError(str(err)) from None
    if not cong.holds:
        raise ConditionsNotMetError(
            "congruence condition fails at node%s %s"
            % ("s" if len(cong.failures) > 1 else "", ", ".join(cong.failures))
        )
    diagram = to_splice_diagram(g)
    variables = diagram.leaves
    systems = []
    equations = []
    rows_by_valency = {}  # each valency's rows are built and verified once
    for v in diagram.nodes:
        chosen = cong.node_monomials[v]  # by direction label, in edge order
        delta = len(chosen)
        if delta not in rows_by_valency:
            rows_by_valency[delta] = generic_coefficients(delta)
        coeffs = rows_by_valency[delta]
        links = diagram.walk(v)[0]
        monomials = tuple(chosen.values())
        # The monomials of the delta directions are in the leaves beyond
        # distinct edges, so they are distinct, and each coefficient
        # (pos + 1)^i is a nonzero int: the sums are term maps as they are.
        keys = [tuple(a.get(w, 0) for w in variables) for a in monomials]
        node_eqs = [
            Polynomial._from_terms(
                variables,
                {key: coeffs[i, pos] for pos, key in enumerate(keys)},
            )
            for i in range(delta - 2)
        ]
        system = NodeSystem(
            node_id=v,
            weight=links[v],
            variable_weights={w: links[w] for w in variables},
            directions=tuple(chosen),
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
        characters=leaf_characters(g),
    )
    _verify_package(pkg)
    return pkg


def _verify_package(pkg):
    if len(pkg.equations) != len(pkg.variables) - 2:
        raise AssertionError("expected t-2 equations")
    if not check_equivariance(pkg):
        raise AssertionError(
            "emitted equations are not homogeneous of the node weight "
            "with one character"
        )


def check_equivariance(pkg: EquationsPackage) -> bool:
    """Every equation weighted-homogeneous of its node's weight d_v and
    with a single character across its monomials (exact comparison)."""
    for node in pkg.nodes:
        for eq in node.equations:
            try:
                if eq.weighted_degree(node.variable_weights) != node.weight:
                    return False
            except ValueError:  # zero, or monomials of different weights
                return False
            seen = {
                pkg.characters.monomial_residue(m)
                for m in eq.support_maps()
            }
            if len(seen) != 1:
                return False
    return True
