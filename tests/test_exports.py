"""The public surface: each module's export list names what it defines,
the package re-exports only exported names, and the retired helpers
stay retired."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sforge

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


@pytest.mark.parametrize("module, cls, name", RETIRED,
                         ids=[r[2] for r in RETIRED])
def test_retired_names_are_gone(module, cls, name):
    mod = importlib.import_module("sforge." + module)
    assert name not in exported(mod)
    assert not hasattr(sforge, name)
    owner = mod if cls is None else getattr(mod, cls)
    assert not hasattr(owner, name)
