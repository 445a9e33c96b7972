"""Shared exception types, and the size guard behind ModelSizeError.

Every error carries a short machine-readable ``code`` so the CLI can emit
``error[<code>]: message`` uniformly.
"""

from math import comb

# Truncated polynomial spaces (the filtration model, symbol maps and Chern
# products) are refused beyond this many monomials.
MODEL_DIM_LIMIT = 20000


class ChernRepError(Exception):
    code = "error"


class RankMismatchError(ChernRepError):
    code = "rank-mismatch"


class EnumerationLimitError(ChernRepError):
    """Raised when a full Weyl-group enumeration would exceed the guard."""

    code = "enumeration-limit"


class ModelSizeError(ChernRepError):
    code = "model-size"


def model_dimension(rank, degree):
    """Number C(rank + degree, rank) of monomials in `rank` variables of
    total degree <= degree; refused beyond MODEL_DIM_LIMIT before any work."""
    dim = comb(rank + degree, rank)
    if dim > MODEL_DIM_LIMIT:
        raise ModelSizeError(f"model dimension {dim} exceeds limit {MODEL_DIM_LIMIT}")
    return dim


class AugmentationError(ChernRepError):
    code = "augmentation"


class FiltrationCapError(ChernRepError):
    code = "cap-exceeded"


class InvarianceError(ChernRepError):
    code = "not-invariant"


class NoCanonicalGeneratorsError(ChernRepError):
    code = "no-generators"


class ReductionDefectError(ChernRepError):
    """Internal invariant of a rewriting or subspace routine was violated."""

    code = "defect"


class ParseError(ChernRepError):
    code = "parse"

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos
