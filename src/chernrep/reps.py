"""Characters of concrete representations and constructions on them."""

from .char_ring import VirtualCharacter, _from_codes, _lambda_codes, augmentation
from .errors import RankMismatchError, model_dimension
from .weyl import GL, SO_ODD, TORUS, _fixed_by_generators


def standard(g):
    """Character of the standard representation: unit weights for GL(n),
    +-x_i for Sp(2l) and SO(2l), +-x_i and 0 for SO(2l+1)."""
    if g.family == TORUS:
        raise ValueError("a torus has no standard representation")
    n = g.rank
    weights = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        weights.append(tuple(e))
        if g.family != GL:
            weights.append(tuple(-c for c in e))
    if g.family == SO_ODD:
        weights.append((0,) * n)
    return VirtualCharacter.from_weights(n, weights)


def exterior(x, p):
    """Exterior power: coefficient p of the lambda series, the only one
    decoded from its integer codes.

    An effective x (no negative multiplicity) has lambda^p(x) = 0 above its
    dimension, returned at once.  Otherwise the series builds every weight
    of degree <= p in the N distinct weights of x, so it is refused with
    ModelSizeError when C(N + p, p) exceeds MODEL_DIM_LIMIT, before any
    work.
    """
    if p < 0:
        raise ValueError("exterior power needs p >= 0")
    return _signed_exterior(x, p, 1)


def _signed_exterior(x, p, sign):
    """sign * lambda^p(x), refused or cut short as `exterior` says."""
    if all(m > 0 for m in x.terms.values()):
        if p > augmentation(x):
            return VirtualCharacter.zero(x.rank)
    else:
        model_dimension(len(x.terms), p)
    coeffs, base, bound = _lambda_codes(x, p)
    return _from_codes(x.rank, coeffs[p], base, bound, sign)


def symmetric(x, p):
    """Symmetric power, sigma^p(x) = (-1)^p lambda^p(-x), read off
    sigma_t(x) = lambda_(-t)(x)^(-1) = lambda_(-t)(-x); the sign is applied
    as lambda^p(-x) is decoded."""
    if p < 0:
        raise ValueError("symmetric power needs p >= 0")
    return _signed_exterior(-x, p, (-1) ** p)


def dual(x):
    """Weight negation, multiplicities preserved."""
    return VirtualCharacter(x.rank, {tuple(-c for c in w): m for w, m in x.terms.items()})


def assert_g_rep(x, g):
    """True iff x is invariant under the Weyl group of g, i.e. lies in the
    image of R(G) inside R(T): each Weyl generator sends every weight to
    one of the same multiplicity, checked by lookups."""
    if x.rank != g.rank:
        raise RankMismatchError(f"character rank {x.rank} != torus rank {g.rank}")
    return _fixed_by_generators(x.terms, g, lambda weight: (weight, 1))
