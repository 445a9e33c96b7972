"""The lambda-ring of torus characters: exact group-algebra arithmetic.

A virtual character is a finitely supported integer combination of lattice
weights, i.e. an element of the group algebra Z[Z^n].  Multiplication is
convolution of weights (tensor product of representations), the augmentation
counts total multiplicity (virtual dimension), and the lambda/gamma series
truncated at degree d are the tuples of their d + 1 virtual-character
coefficients.  The lambda series, which builds every exterior and symmetric
power, is computed in one pass over the weights on integer-coded weights
(see `lambda_series`), not by multiplying whole series.

The same integer codes carry the truncated polynomials of `graded` and
`invariants`: x^e of degree k has the monomial code
`_code((k, e_1, ..., e_n), base)`.  In base d + 1 the codes of a product
add without carry, code order is graded lex order, and degree <= d is
code < (d + 1)^(n + 1).

Everything here is exact integer arithmetic; no floats anywhere.
"""

import operator
from math import factorial

from .errors import RankMismatchError
from .weyl import _Record


def binomial(n, k):
    """Binomial coefficient for any integer n (possibly negative), k >= 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    return num // factorial(k)


def _code(vec, base):
    """The integer whose base-`base` digits are the entries of vec, first
    entry most significant.  It is linear in vec, so the code of a sum is
    the sum of the codes; it decodes back while every entry lies in a
    window of `base` consecutive integers."""
    code = 0
    for v in vec:
        code = code * base + v
    return code


def _decode(code, rank, base):
    """The vector of `rank` entries in [0, base) with the given `_code`."""
    vec = []
    for _ in range(rank):
        vec.append(code % base)
        code //= base
    vec.reverse()
    return tuple(vec)


def _form(coords, base):
    """Coded integer terms of the linear form La = sum a_i x_i of a weight a."""
    n = len(coords)
    return {
        _code((1, *(int(j == i) for j in range(n))), base): a
        for i, a in enumerate(coords)
        if a
    }


def _product(f, g, cut):
    """Product of two coded polynomials, keeping the codes below cut.  The
    codes of g are walked in increasing order, so each walk stops at the
    first product past the cut."""
    out = {}
    g = sorted(g.items())
    for a, x in f.items():
        for b, y in g:
            c = a + b
            if c >= cut:
                break
            out[c] = out.get(c, 0) + x * y
    return out


def _binomial_power(form, m, d, cut):
    """(1 + l)^m through degree d for a coded linear form l, with codes
    below cut: the terms C(m, k) l^k for k <= d, which stop at k = m when
    m >= 0 and are the truncated inverse power when m < 0."""
    out, power = {0: 1}, {0: 1}
    for k in range(1, (d if m < 0 else min(m, d)) + 1):
        power = _product(power, form, cut)
        c = binomial(m, k)
        out.update((code, c * v) for code, v in power.items())
    return out


def _signed_sum(parts):
    """Join (coefficient, text of its term without the sign) pairs as a
    signed sum, `-a + b - c`; "0" when there are none."""
    out = []
    for c, text in parts:
        if out:
            out.append(("+ " if c > 0 else "- ") + text)
        else:
            out.append(text if c > 0 else "-" + text)
    return " ".join(out) or "0"


class VirtualCharacter(_Record):
    """Finitely supported map weight -> nonzero integer multiplicity.
    Weights and multiplicities must be integers (TypeError otherwise)."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        collected = {}
        for weight, mult in (terms or {}).items():
            weight, mult = tuple(map(operator.index, weight)), operator.index(mult)
            if len(weight) != rank:
                raise RankMismatchError(
                    f"weight {weight} has length {len(weight)}, expected {rank}"
                )
            if mult:
                collected[weight] = collected.get(weight, 0) + mult
        super().__init__(rank, {w: m for w, m in collected.items() if m})

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def unit(cls, rank):
        """The class of the trivial character, [0]."""
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def from_weights(cls, rank, weights):
        terms = {}
        for w in weights:
            w = tuple(w)
            terms[w] = terms.get(w, 0) + 1
        return cls(rank, terms)

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} != rank {other.rank}")

    def __add__(self, other):
        self._check_rank(other)
        terms = dict(self.terms)
        for w, m in other.terms.items():
            terms[w] = terms.get(w, 0) + m
        return VirtualCharacter(self.rank, terms)

    def __neg__(self):
        return VirtualCharacter(self.rank, {w: -m for w, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return VirtualCharacter(
                self.rank, {w: m * other for w, m in self.terms.items()}
            )
        self._check_rank(other)
        terms = {}
        for wa, ma in self.terms.items():
            for wb, mb in other.terms.items():
                key = tuple(a + b for a, b in zip(wa, wb))
                terms[key] = terms.get(key, 0) + ma * mb
        return VirtualCharacter(self.rank, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a character")
        out = VirtualCharacter.unit(self.rank)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def to_text(self):
        """Canonical text form, e.g. ``2[1,0] + [0,1] - [0,0]``.

        Terms are listed in descending lexicographic weight order.
        """
        fmt = "[" + ",".join(["%d"] * self.rank) + "]"
        parts = []
        for w, m in sorted(self.terms.items(), reverse=True):
            body = fmt % w
            parts.append((m, body if abs(m) == 1 else f"{abs(m)}{body}"))
        return _signed_sum(parts)

    def to_json_obj(self):
        return [
            {"weight": list(w), "multiplicity": self.terms[w]}
            for w in sorted(self.terms, reverse=True)
        ]

    def __str__(self):
        return self.to_text()


def augmentation(x):
    """Sum of multiplicities; ring homomorphism onto Z."""
    return sum(x.terms.values())


def adams(k, x):
    """Adams operation as weight dilation, [a] -> [k*a]."""
    if k < 1:
        raise ValueError("adams operations need k >= 1")
    terms = {}
    for w, m in x.terms.items():
        key = tuple(k * c for c in w)
        terms[key] = terms.get(key, 0) + m
    return VirtualCharacter(x.rank, terms)


def lambda_series(x, d):
    """lambda_t(x) truncated at degree d, in one pass over the weights, as
    the tuple of its coefficients: entry p is lambda^p(x).

    Writing x = sum of m_a [a], the series is the product over weights of
    (1 + [a]t)^(m_a), expanded by the generalized binomial series
    (1 + [a]t)^m = sum_j C(m, j) [j*a] t^j.  The coefficients e_0..e_d are
    plain dicts keyed by integer weight codes: with B = 2*d*max|coordinate|
    + 1, a weight's code is `_code` in base B, read back as balanced digits.
    Every weight of degree <= d has coordinates bounded by d*max|coordinate|,
    so adding weights is adding codes, with no carry.

    A weight with m > 0 updates e_k += sum_(1<=j<=min(m,k)) C(m, j)
    [j*a] e_(k-j) for k = d down to 1, reading only old lower coefficients.
    A weight with m = -n < 0 divides by (1 + [a]t)^n instead: for k = 1 up
    to d, e_k -= sum_(1<=j<=min(n,k)) C(n, j) [j*a] e_(k-j), reading the
    new lower coefficients.  Codes are decoded to weight tuples only for
    the returned coefficients.
    """
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    coeffs, base, bound = _lambda_codes(x, d)
    return tuple(_from_codes(x.rank, ek, base, bound) for ek in coeffs)


def _lambda_codes(x, d):
    """The coded coefficients e_0..e_d of `lambda_series`, with the base B
    and the coordinate bound of their codes."""
    bound = d * max((abs(c) for w in x.terms for c in w), default=0)
    base = 2 * bound + 1
    coeffs = [{0: 1}] + [{} for _ in range(d)]
    for w, m in x.terms.items():
        code = _code(w, base)
        n, sign = abs(m), 1 if m > 0 else -1
        binoms = [sign * binomial(n, j) for j in range(min(n, d) + 1)]
        for k in range(d, 0, -1) if m > 0 else range(1, d + 1):
            ek = coeffs[k]
            for j in range(1, min(n, k) + 1):
                c, shift = binoms[j], j * code
                for key, v in coeffs[k - j].items():
                    key += shift
                    ek[key] = ek.get(key, 0) + c * v
    return coeffs, base, bound


def _from_codes(rank, coded, base, bound, sign=1):
    """sum sign * v [a] over the terms code(a) -> v of coded, in descending
    code order, which is the descending lexicographic order `to_text` sorts
    by.  Decoded in bulk: one pass per coordinate over the codes shifted by
    the code of (bound, ..., bound), whose digits then lie in [0, base).
    Zero multiplicities are dropped; nothing else is checked again."""
    codes = sorted((key for key, v in coded.items() if v), reverse=True)
    shift = _code((bound,) * rank, base)
    rest = [key + shift for key in codes]
    columns = []
    for _ in range(rank):
        columns.append([r % base - bound for r in rest])
        rest = [r // base for r in rest]
    weights = zip(*reversed(columns)) if rank else [()] * len(codes)
    return VirtualCharacter._trusted(
        rank, dict(zip(weights, [sign * coded[key] for key in codes]))
    )


def gamma_series(x, d):
    """gamma_t(x) = lambda_{t/(1-t)}(x) truncated at degree d, as the tuple
    of its coefficients: entry q is gamma^q(x).

    The coefficient of t^q in (t/(1-t))^p is C(q-1, p-1), so
    gamma^q(x) = sum_(1<=p<=q) C(q-1, p-1) lambda^p(x) for q >= 1.  The sum
    runs on the coded coefficients of `_lambda_codes`, whose weights all
    share one base, and each gamma^q is decoded once.
    """
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    lam, base, bound = _lambda_codes(x, d)
    coeffs = [lam[0]]
    for q in range(1, d + 1):
        gq = {}
        for p in range(1, q + 1):
            c = binomial(q - 1, p - 1)
            for key, v in lam[p].items():
                gq[key] = gq.get(key, 0) + c * v
        coeffs.append(gq)
    return tuple(_from_codes(x.rank, gq, base, bound) for gq in coeffs)
