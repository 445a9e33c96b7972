"""Exact Chern classes and characters for representations of classical
reductive groups, computed inside the lambda-ring of torus characters."""

from .char_ring import (
    CharSeries,
    VirtualCharacter,
    adams,
    augmentation,
    gamma_series,
    lambda_series,
)
from .errors import ChernRepError
from .filtration_check import (
    PropReport,
    Subspace,
    TruncatedAlgebra,
    gamma_subspace_ambient_cap_invariant,
    gamma_subspace_invariant,
    verify_prop,
)
from .graded import (
    BEYOND_CAP,
    SymbolicPolynomial,
    filtration_degree,
    leading_class,
    symbol_map,
    total_chern,
)
from .invariants import (
    GeneratorExpression,
    evaluate,
    generator_definitions,
    is_invariant,
    rewrite,
    symmetrize,
)
from .parsing import (
    parse_character,
    parse_generator_expression,
    parse_group,
    parse_polynomial,
    parse_rep,
    rep_to_character,
)
from .reps import assert_g_rep, dual, exterior, standard, symmetric
from .weyl import (
    GroupSpec,
    SignedPermutation,
    orbit,
    weyl_generators,
)

__all__ = [
    "BEYOND_CAP",
    "CharSeries",
    "ChernRepError",
    "GeneratorExpression",
    "GroupSpec",
    "PropReport",
    "SignedPermutation",
    "Subspace",
    "SymbolicPolynomial",
    "TruncatedAlgebra",
    "VirtualCharacter",
    "adams",
    "assert_g_rep",
    "augmentation",
    "dual",
    "evaluate",
    "exterior",
    "filtration_degree",
    "gamma_series",
    "gamma_subspace_ambient_cap_invariant",
    "gamma_subspace_invariant",
    "generator_definitions",
    "is_invariant",
    "lambda_series",
    "leading_class",
    "orbit",
    "parse_character",
    "parse_generator_expression",
    "parse_group",
    "parse_polynomial",
    "parse_rep",
    "rep_to_character",
    "rewrite",
    "standard",
    "symbol_map",
    "symmetric",
    "symmetrize",
    "total_chern",
    "verify_prop",
    "weyl_generators",
]
