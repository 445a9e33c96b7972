"""Exact Chern classes and characters for representations of classical
reductive groups, computed inside the lambda-ring of torus characters.

Every layer is a lazy module: it is in `sys.modules` from the start, and its
code runs when the first attribute is looked up on it.  A public name is
looked up in its layer on first use (PEP 562), so a call runs only the layers
it reaches.
"""

import importlib.util
import sys
import types
from _thread import RLock

_PUBLIC = {
    "char_ring": (
        "VirtualCharacter", "adams", "augmentation", "gamma_series", "lambda_series",
    ),
    "errors": ("ChernRepError",),
    "filtration_check": (
        "PropReport", "Subspace", "TruncatedAlgebra", "verify_prop",
    ),
    "graded": (
        "BEYOND_CAP", "SymbolicPolynomial", "filtration_degree", "leading_class",
        "symbol_map", "total_chern",
    ),
    "invariants": (
        "GeneratorExpression", "evaluate", "generator_definitions", "is_invariant",
        "rewrite", "symmetrize",
    ),
    "parsing": (
        "parse_character", "parse_generator_expression", "parse_polynomial",
        "parse_rep", "rep_to_character",
    ),
    "reps": ("assert_g_rep", "dual", "exterior", "standard", "symmetric"),
    "weyl": ("GroupSpec", "parse_group"),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}
__all__ = sorted(_LAYER_OF)


_LOCK = RLock()
_RUNNING = set()


class _Layer(types.ModuleType):
    """A layer whose code has not run yet.  The first attribute lookup,
    assignment or deletion runs it once, under one lock for all layers, so a
    thread that looks a name up meanwhile waits for the whole layer (the
    stdlib `LazyLoader` takes no lock before Python 3.13), and a name set
    before the run is not reset by it.  Lookups that the running code makes
    on its own module, as in an import cycle, see the module as it stands."""

    def _run(self):
        with _LOCK:
            spec = types.ModuleType.__getattribute__(self, "__spec__")
            if type(self) is _Layer and spec.name not in _RUNNING:
                _RUNNING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                    types.ModuleType.__setattr__(self, "__class__", types.ModuleType)
                finally:
                    _RUNNING.discard(spec.name)

    def __getattribute__(self, attr):
        _Layer._run(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _Layer._run(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _Layer._run(self)
        types.ModuleType.__delattr__(self, attr)


def _lazy(layer):
    """The layer as a module in sys.modules whose code has not run yet."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Layer
    sys.modules[spec.name] = module
    return module


globals().update({layer: _lazy(layer) for layer in _PUBLIC})


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
