"""The result records: what importing sforge costs, and what each record
keeps of the frozen dataclasses they were: fields in order, the repr,
keyword construction, defaults, refused assignment, and a hash when
every field has one."""

import subprocess
import sys
from pathlib import Path

import pytest

import sforge
from sforge import (
    CharacterAssignment,
    Classification,
    CongruenceResult,
    Cycle,
    DiscriminantData,
    EquationsPackage,
    InvariantBasis,
    MembershipCertificate,
    NodeSystem,
    RationalCycle,
    SemigroupWitness,
    SnfResult,
    SpliceEdge,
    Vertex,
    build_splice_equations,
    canonical_cycle,
    classify,
    discriminant_group,
    fundamental_cycle,
    intersection_matrix,
    invariant_generators,
    leaf_characters,
    membership_bounded,
    semigroup_condition,
    smith_normal_form,
    to_splice_diagram,
)

from oracles import generator_monomial
from sforge.corpus import e7
from sforge.equations import congruence_condition

FIELDS = {
    Vertex: ("id", "weight", "genus"),
    Cycle: ("vertex_ids", "coefficients"),
    RationalCycle: ("vertex_ids", "coefficients"),
    Classification: ("kind", "zsq", "multiplicity", "embedding_dimension",
                     "numerically_gorenstein"),
    SnfResult: ("d", "u_inv", "v_inv"),
    DiscriminantData: ("order", "invariant_factors", "generators",
                       "generator_orders"),
    CharacterAssignment: ("leaf_ids", "generator_orders", "phases"),
    SpliceEdge: ("index", "a", "b", "path"),
    SemigroupWitness: ("holds", "solutions", "failures", "truncated"),
    NodeSystem: ("node_id", "weight", "variable_weights", "directions",
                 "monomials", "coefficients", "character", "equations"),
    EquationsPackage: ("variables", "equations", "nodes", "characters"),
    CongruenceResult: ("holds", "node_characters", "node_monomials",
                       "failures"),
    InvariantBasis: ("variables", "exponents", "names"),
    MembershipCertificate: ("cofactors", "degree_bound"),
}


def _records():
    """One record of each type, as the e7 pipeline makes it."""
    g = e7()
    chars = leaf_characters(g)
    pkg = build_splice_equations(g)
    basis = invariant_generators(chars, discriminant_group(g).order)
    gens = [generator_monomial(basis, i) for i in range(len(basis.names))]
    return [
        g.vertices[0],
        fundamental_cycle(g),
        canonical_cycle(g),
        classify(g),
        smith_normal_form(intersection_matrix(g)),
        discriminant_group(g),
        chars,
        to_splice_diagram(g).edges[0],
        semigroup_condition(to_splice_diagram(g)),
        pkg.nodes[0],
        pkg,
        congruence_condition(g),
        basis,
        membership_bounded(gens[0], gens, 1),
    ]


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


def test_importing_sforge_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, without site, so that only sforge's own
    imports count."""
    src = str(Path(sforge.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, %r); import sforge, sforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % src
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_record_keeps_the_dataclass_behaviour(record):
    cls = type(record)
    fields = FIELDS[cls]
    values = {f: getattr(record, f) for f in fields}
    assert repr(record) == "%s(%s)" % (
        cls.__name__, ", ".join("%s=%r" % item for item in values.items())
    )
    copy = cls(**values)
    assert copy == record
    assert cls(*values.values()) == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, values[f])
    if all(map(_hashable, values.values())):
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_every_record_type_is_covered():
    assert {type(r) for r in _records()} == set(FIELDS)


def test_record_defaults():
    assert Vertex("a", -2) == Vertex(id="a", weight=-2, genus=0)
    assert repr(Vertex("a", -2)) == "Vertex(id='a', weight=-2, genus=0)"
    witness = SemigroupWitness(holds=True, solutions={}, failures=())
    assert witness.truncated == ()


def test_character_assignment_equality_and_caches():
    """A plain class, not a tuple: equal only to an assignment of equal
    fields, and its cached properties land in the instance."""
    chars = leaf_characters(e7())
    same = CharacterAssignment(
        chars.leaf_ids, chars.generator_orders, chars.phases
    )
    assert same == chars and hash(same) == hash(chars)
    assert same != (chars.leaf_ids, chars.generator_orders, chars.phases)
    assert same.modulus == chars.modulus
    assert "modulus" in vars(same)
    with pytest.raises(AttributeError):
        same.extra = 1
    with pytest.raises(AttributeError):
        del same.leaf_ids
