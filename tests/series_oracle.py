"""Whole-series arithmetic on `CharSeries`: the test oracle for the coded
one-pass `lambda_series`, `exterior` and `symmetric` of `chernrep`.

The library never multiplies or inverts a series; it builds the lambda
series in one pass over integer weight codes.  Here the series are
multiplied and inverted coefficient by coefficient on `VirtualCharacter`s,
so each check against this module takes an independent route.
"""

from chernrep.char_ring import CharSeries, VirtualCharacter, binomial
from chernrep.errors import RankMismatchError


def series_product(a, b):
    """The product of two series, truncated at the lower of their degrees."""
    if a.rank != b.rank:
        raise RankMismatchError("series rank mismatch")
    d = min(a.degree, b.degree)
    out = [VirtualCharacter.zero(a.rank) for _ in range(d + 1)]
    for i, c in enumerate(a.coeffs[: d + 1]):
        if not c:
            continue
        for j in range(d + 1 - i):
            if b.coeffs[j]:
                out[i + j] = out[i + j] + c * b.coeffs[j]
    return CharSeries(a.rank, out)


def series_inverse(s):
    """Truncated multiplicative inverse; the constant coefficient must be [0]."""
    unit = VirtualCharacter.unit(s.rank)
    if s.coeffs[0] != unit:
        raise ValueError("series inverse needs constant coefficient [0]")
    inv = [unit]
    for n in range(1, s.degree + 1):
        acc = VirtualCharacter.zero(s.rank)
        for i in range(1, n + 1):
            if s.coeffs[i]:
                acc = acc + s.coeffs[i] * inv[n - i]
        inv.append(-acc)
    return CharSeries(s.rank, inv)


def lambda_series_by_products(x, d):
    """The product of the series (1 + [a]t)^(m_a) as whole CharSeries, one
    per weight."""
    out = CharSeries.one(x.rank, d)
    for w in sorted(x.terms):
        factor = []
        for k in range(d + 1):
            c = binomial(x.terms[w], k)
            factor.append(VirtualCharacter(x.rank, {tuple(k * a for a in w): c} if c else {}))
        out = series_product(out, CharSeries(x.rank, factor))
    return out


def symmetric_by_inverse(x, p):
    """Coefficient p of the truncated inverse of lambda_{-t}(x)."""
    lam = lambda_series_by_products(x, p)
    alt = CharSeries(x.rank, [c * (-1) ** k for k, c in enumerate(lam.coeffs)])
    return series_inverse(alt).coefficient(p)
