"""Characters of concrete representations and constructions on them."""

from .char_ring import VirtualCharacter, augmentation, lambda_series
from .errors import RankMismatchError, model_dimension
from .weyl import GL, SO_ODD, TORUS, weyl_generators


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
    """Exterior power: coefficient p of the lambda series.

    An effective x (no negative multiplicity) has lambda^p(x) = 0 above its
    dimension, returned at once.  Otherwise the series builds every weight
    of degree <= p in the N distinct weights of x, so it is refused with
    ModelSizeError when C(N + p, p) exceeds MODEL_DIM_LIMIT, before any
    work.
    """
    if p < 0:
        raise ValueError("exterior power needs p >= 0")
    if all(m > 0 for m in x.terms.values()):
        if p > augmentation(x):
            return VirtualCharacter.zero(x.rank)
    else:
        model_dimension(len(x.terms), p)
    return lambda_series(x, p).coefficient(p)


def symmetric(x, p):
    """Symmetric power, sigma^p(x) = (-1)^p lambda^p(-x), read off
    sigma_t(x) = lambda_(-t)(x)^(-1) = lambda_(-t)(-x)."""
    if p < 0:
        raise ValueError("symmetric power needs p >= 0")
    return exterior(-x, p) * (-1) ** p


def dual(x):
    """Weight negation, multiplicities preserved."""
    return VirtualCharacter(x.rank, {tuple(-c for c in w): m for w, m in x.terms.items()})


def assert_g_rep(x, g):
    """True iff x is invariant under the Weyl group of g (checked on
    generators), i.e. lies in the image of R(G) inside R(T)."""
    if x.rank != g.torus_rank:
        raise RankMismatchError(f"character rank {x.rank} != torus rank {g.torus_rank}")
    for w in weyl_generators(g):
        moved = {}
        for weight, m in x.terms.items():
            moved[w.act(weight)] = m
        if moved != x.terms:
            return False
    return True
