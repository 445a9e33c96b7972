"""Shared exception types, the size guard behind ModelSizeError, and `parse_int`.

Every error carries a short machine-readable ``code`` so the CLI can emit
``error[<code>]: message`` uniformly.
"""

import sys
from math import comb

# Truncated polynomial spaces (the filtration model, symbol maps, Chern
# products), the output of `symmetrize` and a `check-prop` report are
# refused by `within_limit` beyond this many monomials or entries.
MODEL_DIM_LIMIT = 20000


class ChernRepError(Exception):
    code = "error"


class RankMismatchError(ChernRepError):
    code = "rank-mismatch"


class ModelSizeError(ChernRepError):
    code = "model-size"


def within_limit(count, what):
    """count, the predicted size of `what`, which the caller has not built
    yet; refused with ModelSizeError beyond MODEL_DIM_LIMIT."""
    if count > MODEL_DIM_LIMIT:
        raise ModelSizeError(f"{what} {count} exceeds limit {MODEL_DIM_LIMIT}")
    return count


def model_dimension(rank, degree):
    """Number C(rank + degree, rank) of monomials in `rank` variables of
    total degree <= degree; refused beyond MODEL_DIM_LIMIT before any work."""
    return within_limit(comb(rank + degree, rank), "model dimension")


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


def parse_int(digits, pos=None):
    """int(digits) for a string of decimal digits, or a ParseError that
    names the interpreter's limit on converting integers from text."""
    try:
        return int(digits)
    except ValueError:
        limit = f"the limit of {sys.get_int_max_str_digits()} digits"
        raise ParseError(f"integer literal of {len(digits)} digits past {limit}", pos) from None
