"""The public surface: each module's export list names what it defines,
the package re-exports only exported names, and the retired helpers
stay retired."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sforge
from sforge import discgroup

MODULES = sorted(m.name for m in pkgutil.iter_modules(sforge.__path__))

# Thin views and helpers that only tests called, each with what
# replaces it: (module, class or None, name).
RETIRED = (
    ("equations", None, "admissible_monomials"),  # semigroup_condition
    ("equations", None, "bci_exponents"),  # d.weight(v, e) at the node
    ("splice", "SemigroupWitness", "at"),  # solutions[(v, e.index)]
    ("graph", None, "is_numerically_gorenstein"),  # K.is_integral()
    ("invariants", "InvariantBasis", "name_for"),  # names by exponents
    ("discgroup", "DiscriminantData", "is_trivial"),  # order == 1
    ("graph", "ResolutionGraph", "induced_subgraph"),  # oracles
    ("invariants", "InvariantBasis", "monomial"),  # oracles
    ("poly", "Polynomial", "constant"),  # Polynomial(vs, {zeros: c})
    ("poly", "Polynomial", "variable"),  # Polynomial(vs, {unit: 1})
    ("poly", "Polynomial", "monomial"),  # Polynomial(vs, {exps: c})
    ("poly", "Polynomial", "__neg__"),  # times the constant -1
    ("poly", "Polynomial", "__sub__"),  # + the negated operand
    ("poly", "Polynomial", "__rsub__"),  # + the negated operand
    ("poly", "Polynomial", "__pow__"),  # repeated *
    ("poly", "Polynomial", "__radd__"),  # + of two Polynomials
    ("poly", "Polynomial", "__rmul__"),  # * of two Polynomials
    ("poly", "Polynomial", "substitute"),  # + and * of the images
    ("poly", "Polynomial", "total_degree"),  # max(map(sum, p.terms))
    ("poly", "Polynomial", "is_zero"),  # not p.terms
    ("intmat", "IntMatrix", "to_rational"),  # oracles.RatMatrix(m.entries)
    ("intmat", "SnfResult", "invariant_factors"),  # nonzero diagonal
    ("intmat", None, "RatMatrix"),  # oracles; invert_rational gives rows
    ("intmat", "IntMatrix", "__truediv__"),  # Fraction(x, d) per entry
    ("graph", "ResolutionGraph", "vertex"),  # g.vertices[g.index_of(vid)]
)


def exported(module):
    """A module's __all__, or without one, what `import *` takes: the
    names it defines that do not start with an underscore."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name, value in vars(module).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module("sforge." + name)
    missing = [x for x in getattr(module, "__all__", ())
               if not hasattr(module, x)]
    assert not missing, missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(sforge.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        module = importlib.import_module("sforge." + node.module)
        names = {a.name for a in node.names}
        assert names <= exported(module), (node.module,
                                           names - exported(module))


def _ids(entries):
    """Each entry's name, qualified by its class when an earlier entry
    has the same name."""
    seen = set()
    out = []
    for _, cls, name in entries:
        out.append("%s.%s" % (cls, name) if name in seen else name)
        seen.add(name)
    return out


@pytest.mark.parametrize("module, cls, name", RETIRED, ids=_ids(RETIRED))
def test_retired_names_are_gone(module, cls, name):
    mod = importlib.import_module("sforge." + module)
    owner = mod if cls is None else getattr(mod, cls)
    assert not hasattr(owner, name)
    assert name not in exported(mod)
    if name in exported(discgroup):
        # sforge.invariant_factors is the live discgroup function, not
        # the retired SnfResult property of the same name.
        assert getattr(sforge, name) is getattr(discgroup, name)
    else:
        assert not hasattr(sforge, name)
