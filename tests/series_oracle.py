"""Second routes through the series, the test oracles for `chernrep`.

Whole-series arithmetic on coefficient tuples checks the coded one-pass
`lambda_series`, `exterior` and `symmetric`: the library never multiplies
or inverts a series, and here the series are multiplied and inverted
coefficient by coefficient on `VirtualCharacter`s.  Summing the lambda
coefficients with `VirtualCharacter` arithmetic checks `gamma_series`,
which sums them on integer codes.  Newton's identity on the lambda
coefficients checks `adams`, which dilates weights, and the paper's
definition of Chern classes through gamma operations checks `total_chern`,
which takes the splitting principle.  So each check against this module
takes an independent route.
"""

from chernrep.char_ring import (
    VirtualCharacter,
    augmentation,
    binomial,
    gamma_series,
    lambda_series,
)
from chernrep.errors import RankMismatchError
from chernrep.graded import SymbolicPolynomial, symbol_map


def series_one(rank, d):
    """The series 1 truncated at degree d."""
    return (VirtualCharacter.unit(rank),) + (VirtualCharacter.zero(rank),) * d


def series_product(a, b):
    """The product of two series, truncated at the lower of their degrees."""
    if a[0].rank != b[0].rank:
        raise RankMismatchError("series rank mismatch")
    d = min(len(a), len(b)) - 1
    out = [VirtualCharacter.zero(a[0].rank) for _ in range(d + 1)]
    for i, c in enumerate(a[: d + 1]):
        if not c:
            continue
        for j in range(d + 1 - i):
            if b[j]:
                out[i + j] = out[i + j] + c * b[j]
    return tuple(out)


def series_inverse(s):
    """Truncated multiplicative inverse; the constant coefficient must be [0]."""
    unit = VirtualCharacter.unit(s[0].rank)
    if s[0] != unit:
        raise ValueError("series inverse needs constant coefficient [0]")
    inv = [unit]
    for n in range(1, len(s)):
        acc = VirtualCharacter.zero(unit.rank)
        for i in range(1, n + 1):
            if s[i]:
                acc = acc + s[i] * inv[n - i]
        inv.append(-acc)
    return tuple(inv)


def lambda_series_by_products(x, d):
    """The product of the series (1 + [a]t)^(m_a) as whole coefficient
    tuples, one per weight."""
    out = series_one(x.rank, d)
    for w in sorted(x.terms):
        factor = []
        for k in range(d + 1):
            c = binomial(x.terms[w], k)
            factor.append(VirtualCharacter(x.rank, {tuple(k * a for a in w): c} if c else {}))
        out = series_product(out, factor)
    return out


def symmetric_by_inverse(x, p):
    """Coefficient p of the truncated inverse of lambda_{-t}(x)."""
    lam = lambda_series_by_products(x, p)
    alt = tuple(c * (-1) ** k for k, c in enumerate(lam))
    return series_inverse(alt)[p]


def gamma_series_by_sums(x, d):
    """gamma^0(x)..gamma^d(x) as gamma^q = sum_(1<=p<=q) C(q-1, p-1)
    lambda^p(x), summed with `VirtualCharacter` arithmetic."""
    lam = lambda_series(x, d)
    out = list(lam)
    for q in range(2, d + 1):
        for p in range(1, q):
            if lam[p]:
                out[q] = out[q] + lam[p] * binomial(q - 1, p - 1)
    return tuple(out)


def adams_via_series(k, x):
    """Adams operation read off the lambda series by Newton's identity
    psi^j = sum_(i<j) (-1)^(i-1) lambda^i psi^(j-i) + (-1)^(j-1) j lambda^j,
    the coefficientwise form of sum_j psi^j(x) (-t)^(j-1) =
    lambda_t(x)^(-1) * d/dt lambda_t(x)."""
    if k < 1:
        raise ValueError("adams operations need k >= 1")
    lam = lambda_series(x, k)
    psi = [None]
    for j in range(1, k + 1):
        acc = lam[j] * ((-1) ** (j - 1) * j)
        for i in range(1, j):
            acc = acc + lam[i] * psi[j - i] * (-1) ** (i - 1)
        psi.append(acc)
    return psi[k]


def chern_class(x, p):
    """c_p(x) by the definition through gamma operations: the degree-p
    component of the symbol of gamma^p(x - eps(x)), a homogeneous
    polynomial of degree p or zero; c_0 = 1."""
    if p < 0:
        raise ValueError("chern class degree must be >= 0")
    if p == 0:
        return SymbolicPolynomial.one(x.rank)
    reduced = x - VirtualCharacter.unit(x.rank) * augmentation(x)
    return symbol_map(gamma_series(reduced, p)[p], p).homogeneous_component(p)
