"""Discriminant group of the intersection pairing and its diagonal
action on the leaf coordinates.

The group is coker(E -> E*), presented through the Smith normal form of
the intersection matrix M: with U M V = D, the classes of U^{-1} e_i
for the nontrivial diagonal entries d_i generate, and a class acts on
the leaf variable z_w through the fractional part of its pairing with
the dual basis element e_w. All phases are exact rationals mod 1. The
order |det M| and the generators M^{-1} U^{-1} e_i come from the tree
pass of sforge.graph (its determinant and exact solves), so no inverse
of M is formed. The Smith normal form gives D, U^{-1} and V^{-1}, never
U or V (U is det U^{-1} * adj U^{-1}, from intmat.adjugate), and is
given that determinant: it is certified by M = U^{-1} D V^{-1} with
prod(d_i) = |det M| (see sforge.intmat.smith_normal_form), which also
makes the invariant factors multiply to the order.

Characters are carried as integer residues: with e the lcm of the
generator orders and of the phase denominators, leaf w carries the
vector (e * phases[j][w])_j, and a monomial's character is the sum of
its leaves' vectors mod e. Fractions appear only where the output
prints them.

The action must be faithful. With k generators on t leaves and R = e *
phases (a k x t integer matrix), the image of the group in (Q/Z)^t is
(R^T Z^k + e Z^t) / e Z^t. Its order is e^t / prod(diag), where diag
is the Smith normal form diagonal of the (k + t) x t matrix [R; e I_t].
The action is faithful iff that order is |G|: one exact check whose
cost does not grow with |G|. That stack is not square and has no
determinant, so its Smith normal form is certified by |det U^{-1}| =
|det V^{-1}| = 1 instead. With one generator (k = 1) the stack [r;
e I_t] has index e^(t-1) gcd(e, r_1, ..., r_t), so the image order is
e / gcd(e, r_1, ..., r_t) and the check needs no Smith normal form.

The structure of the group needs no Smith normal form either when the
group is cyclic: the leaf classes generate it, so an element of order
|G| among them proves it cyclic (see invariant_factors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .graph import (
    ResolutionGraph,
    intersection_matrix,
    memoized,
    require_qhs_tree,
)
from .intmat import IntMatrix, smith_normal_form

__all__ = [
    "DiscriminantData",
    "CharacterAssignment",
    "discriminant_group",
    "invariant_factors",
    "leaf_characters",
    "dual_class_order",
]


class DiscriminantData(NamedTuple):
    """Finite abelian group data for D(Gamma) = coker(E -> E*)."""

    order: int
    invariant_factors: tuple  # nontrivial factors only, divisibility order
    generators: tuple  # class representatives, rational coords in the E-basis
    generator_orders: tuple  # order of each generator (= its factor)


class CharacterAssignment:
    """Diagonal action on the leaf variables: generator j multiplies
    z_w by exp(2*pi*i*phases[j][w]).

    Internally every character is an integer residue vector modulo one
    common modulus e: phase p becomes the integer p * e in [0, e).
    Frozen, but no tuple: the cached properties need an instance
    __dict__, which they write directly."""

    def __init__(self, leaf_ids, generator_orders, phases):
        # phases[j] = tuple of Fractions in [0,1), one per leaf
        vars(self).update(leaf_ids=leaf_ids, phases=phases,
                          generator_orders=generator_orders)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def _key(self):
        return self.leaf_ids, self.generator_orders, self.phases

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            "CharacterAssignment(leaf_ids=%r, generator_orders=%r, phases=%r)"
            % self._key()
        )

    @property
    def order(self):
        return prod(self.generator_orders)

    @cached_property
    def _leaf_pos(self):
        return {vid: i for i, vid in enumerate(self.leaf_ids)}

    @cached_property
    def modulus(self):
        """e: the lcm of the generator orders and of the phase
        denominators, so that e * phase is an integer for every phase."""
        return lcm(
            *self.generator_orders,
            *(x.denominator for row in self.phases for x in row),
        )

    def residues(self, character):
        """The ints e * phase of a character given by its phases, one
        per generator. ValueError for a phase that is no multiple of
        1/e: that is no character of the group."""
        e = self.modulus
        if any(e % x.denominator for x in character):
            raise ValueError("a phase is not a multiple of 1/%d" % e)
        return tuple(x.numerator * (e // x.denominator) for x in character)

    @cached_property
    def leaf_residues(self):
        """Per leaf, the tuple of e * phase over the generators."""
        return tuple(self.residues([row[i] for row in self.phases])
                     for i in range(len(self.leaf_ids)))

    @cached_property
    def _packed_residues(self):
        """(digit shifts, digit mask, one integer per leaf): leaf w's
        residue vector as fixed-width binary digits, generator 0 most
        significant. A digit holds a sum of t terms (alpha mod e) * r,
        each below e**2, without carrying."""
        e = self.modulus
        width = (len(self.leaf_ids) * (e - 1) ** 2).bit_length() + 1
        k = len(self.generator_orders)
        packed = []
        for row in self.leaf_residues:
            value = 0
            for r in row:
                value = (value << width) | r
            packed.append(value)
        shifts = tuple(width * (k - 1 - j) for j in range(k))
        return shifts, (1 << width) - 1, tuple(packed)

    def monomial_residue(self, exponents):
        """Character of prod z_w^alpha(w) as integers mod e, one per
        generator; exponents maps leaf id -> exponent.

        Each leaf's residue vector is packed into one integer (see
        _packed_residues), so the character costs one integer
        multiply-add per leaf of the monomial, by alpha mod e; the sum
        is then cut into its digits, each reduced mod e."""
        pos = self._leaf_pos
        e = self.modulus
        shifts, mask, packed = self._packed_residues
        acc = 0
        for vid, alpha in exponents.items():
            acc += alpha % e * packed[pos[vid]]
        out = []
        for s in shifts:
            out.append((acc >> s & mask) % e)
        return tuple(out)

    def monomial_character(self, exponents):
        """Character vector of prod z_w^alpha(w); exponents maps leaf
        id -> exponent. One Fraction in [0,1) per generator."""
        e = self.modulus
        return tuple(Fraction(r, e) for r in self.monomial_residue(exponents))

    def is_faithful(self):
        """Does only the identity act trivially on every leaf? Compares
        the order of the image in (Q/Z)^t, e^t / prod(SNF diagonal of
        [e * phases; e * I_t]), with |G|. With one generator that order
        is e / gcd(e, residues), in closed form (see the module
        docstring)."""
        if not self.generator_orders:
            return True
        t = len(self.leaf_ids)
        if t == 0:
            return self.order == 1
        e = self.modulus
        if len(self.generator_orders) == 1:
            residues = (r for (r,) in self.leaf_residues)
            return e == self.order * gcd(e, *residues)
        rows = [list(row) for row in zip(*self.leaf_residues)]
        rows += [[e if i == j else 0 for j in range(t)] for i in range(t)]
        diag = smith_normal_form(IntMatrix(rows)).diagonal
        return e**t == self.order * prod(diag)


@memoized
def discriminant_group(g: ResolutionGraph) -> DiscriminantData:
    """Order, invariant factors and canonical generators of coker(E ->
    E*) for a negative-definite QHS tree."""
    form = require_qhs_tree(g)
    det = form.determinant
    m = intersection_matrix(g)
    # certified against the tree pass's determinant, so the factors
    # multiply to |det|
    snf = smith_normal_form(m, det=det)
    # coker(M) = Z^n / D Z^n after the row transform U; the class of the
    # i-th standard generator pulls back to U^{-1} e_i in dual-basis
    # coordinates, i.e. to M^{-1} U^{-1} e_i = adj(M) U^{-1} e_i / det in
    # the E-basis: one tree solve per nontrivial factor.
    nontrivial = [i for i in range(m.rows) if snf.d[i, i] > 1]
    factors = tuple(snf.d[i, i] for i in nontrivial)
    coords = form.solve([snf.u_inv.column(i) for i in nontrivial])
    return DiscriminantData(
        order=abs(det),
        invariant_factors=factors,
        generators=tuple(
            tuple(Fraction(x, det) for x in y) for y in coords
        ),
        generator_orders=factors,
    )


@memoized
def invariant_factors(g: ResolutionGraph) -> tuple:
    """The nontrivial invariant factors of D(Gamma) for a negative
    definite QHS tree, in divisibility order; (N,) with N = |det M|
    when the group is cyclic, read off the leaf dual classes without a
    Smith normal form.

    Proof. D(Gamma) is generated by the classes [e_v] of the dual
    basis, and each curve E_v gives the relation w_v [e_v] + sum over
    the neighbours u of v of [e_u] = 0. Read leaf-first, these put
    every vertex class in the span of the leaf classes. Root the tree
    anywhere; a leaf's class is in the span, and a non-leaf v has a
    child c, whose relation gives [e_v] with coefficient 1 from [e_c]
    and the classes of c's children, in the span by induction from the
    leaves. So the leaf classes generate G, the exponent of G is the
    lcm of their orders, and G is cyclic iff that lcm is |G|.

    Each leaf order is N / gcd(det, adj(M) e_w), from one self-verified
    tree solve (dual_class_order), and the walk stops as soon as the
    lcm reaches N. Otherwise the factors are the nontrivial diagonal of
    the Smith normal form of M, certified against the tree pass's
    determinant as in discriminant_group, whose generators are not
    built."""
    det = require_qhs_tree(g).determinant
    n = abs(det)
    if n == 1:
        return ()
    exponent = 1
    for w in g.leaf_ids:
        exponent = lcm(exponent, dual_class_order(g, w))
        if exponent == n:
            return (n,)
    snf = smith_normal_form(intersection_matrix(g), det=det)
    return tuple(d for d in snf.diagonal if d > 1)


@memoized
def leaf_characters(g: ResolutionGraph) -> CharacterAssignment:
    """Phases of the canonical generators on the end-curve variables.

    The phase of a class c (rational coordinates in the E-basis) on the
    leaf w is the fractional part of c . e_w, which is coordinate w of
    c. Faithfulness of the resulting diagonal representation is
    verified by comparing |G| with the order of its image in
    (Q/Z)^t, an index read off one Smith normal form (see the module
    docstring).
    """
    data = discriminant_group(g)
    leaves = g.leaf_ids
    leaf_pos = [g.index_of(w) for w in leaves]
    phases = tuple(
        tuple(gen[p] % 1 for p in leaf_pos) for gen in data.generators
    )
    chars = CharacterAssignment(
        leaf_ids=leaves,
        generator_orders=data.generator_orders,
        phases=phases,
    )
    if not chars.is_faithful():
        raise AssertionError(
            "leaf character representation is not faithful"
        )
    return chars


def dual_class_order(g: ResolutionGraph, vertex_id: str) -> int:
    """Order n_i of the class of the dual basis element e_i: the least
    n >= 1 with n * e_i integral in the E-basis. Column i of M^{-1} is
    y / det(M), with y = adj(M) e_i from one tree solve, so n_i = |det|
    / gcd(det, y)."""
    form = require_qhs_tree(g)
    unit = [0] * g.n
    unit[g.index_of(vertex_id)] = 1
    (y,) = form.solve([unit])
    return abs(form.determinant) // gcd(form.determinant, *y)
