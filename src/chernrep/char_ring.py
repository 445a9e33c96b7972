"""The lambda-ring of torus characters: exact group-algebra arithmetic.

A virtual character is a finitely supported integer combination of lattice
weights, i.e. an element of the group algebra Z[Z^n].  Multiplication is
convolution of weights (tensor product of representations), the augmentation
counts total multiplicity (virtual dimension), and the lambda/gamma series
are truncated power series with virtual-character coefficients.  The lambda
series, which builds every exterior and symmetric power, is computed in one
pass over the weights on integer-coded weights (see `lambda_series`), not
by multiplying whole series.

Everything here is exact integer arithmetic; no floats anywhere.
"""

from math import factorial

from .errors import RankMismatchError


def binomial(n, k):
    """Binomial coefficient for any integer n (possibly negative), k >= 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    return num // factorial(k)


class VirtualCharacter:
    """Finitely supported map weight -> nonzero integer multiplicity."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        collected = {}
        for weight, mult in (terms or {}).items():
            weight = tuple(weight)
            if len(weight) != rank:
                raise RankMismatchError(
                    f"weight {weight} has length {len(weight)}, expected {rank}"
                )
            if mult:
                collected[weight] = collected.get(weight, 0) + mult
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", {w: m for w, m in collected.items() if m})

    def __setattr__(self, name, value):
        raise AttributeError("VirtualCharacter is immutable")

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

    def multiplicity(self, weight):
        return self.terms.get(tuple(weight), 0)

    def support(self):
        return sorted(self.terms)

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

    def __eq__(self, other):
        return (
            isinstance(other, VirtualCharacter)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.terms.items()))))

    def to_text(self):
        """Canonical text form, e.g. ``2[1,0] + [0,1] - [0,0]``.

        Terms are listed in descending lexicographic weight order.
        """
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, reverse=True):
            m = self.terms[w]
            body = "[" + ",".join(str(c) for c in w) + "]"
            mag = abs(m)
            text = body if mag == 1 else f"{mag}{body}"
            if not parts:
                parts.append(text if m > 0 else "-" + text)
            else:
                parts.append(("+ " if m > 0 else "- ") + text)
        return " ".join(parts)

    def to_json_obj(self):
        return [
            {"weight": list(w), "multiplicity": self.terms[w]}
            for w in sorted(self.terms, reverse=True)
        ]

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"VirtualCharacter({self.rank}, {self.terms!r})"


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


class CharSeries:
    """Power series in t, truncated at a fixed degree, with virtual-character
    coefficients."""

    __slots__ = ("rank", "degree", "coeffs")

    def __init__(self, rank, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.rank != rank:
                raise RankMismatchError("series coefficient rank mismatch")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CharSeries is immutable")

    @classmethod
    def one(cls, rank, degree):
        coeffs = [VirtualCharacter.unit(rank)]
        coeffs += [VirtualCharacter.zero(rank) for _ in range(degree)]
        return cls(rank, coeffs)

    def coefficient(self, p):
        if p < 0 or p > self.degree:
            raise IndexError(f"degree {p} outside truncation 0..{self.degree}")
        return self.coeffs[p]

    def truncate(self, degree):
        if degree > self.degree:
            raise ValueError("cannot extend a truncated series")
        return CharSeries(self.rank, self.coeffs[: degree + 1])

    def __mul__(self, other):
        if self.rank != other.rank:
            raise RankMismatchError("series rank mismatch")
        d = min(self.degree, other.degree)
        out = [VirtualCharacter.zero(self.rank) for _ in range(d + 1)]
        for i, a in enumerate(self.coeffs[: d + 1]):
            if not a:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return CharSeries(self.rank, out)

    def inverse(self):
        """Truncated multiplicative inverse; constant coefficient must be [0]."""
        unit = VirtualCharacter.unit(self.rank)
        if self.coeffs[0] != unit:
            raise ValueError("series inverse needs constant coefficient [0]")
        inv = [unit]
        for n in range(1, self.degree + 1):
            acc = VirtualCharacter.zero(self.rank)
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * inv[n - i]
            inv.append(-acc)
        return CharSeries(self.rank, inv)

    def derivative(self):
        coeffs = [
            self.coeffs[p] * p for p in range(1, self.degree + 1)
        ]
        if not coeffs:
            coeffs = [VirtualCharacter.zero(self.rank)]
        return CharSeries(self.rank, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CharSeries)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CharSeries({self.rank}, {list(self.coeffs)!r})"


def lambda_series(x, d):
    """lambda_t(x) truncated at degree d, in one pass over the weights.

    Writing x = sum of m_a [a], the series is the product over weights of
    (1 + [a]t)^(m_a), expanded by the generalized binomial series
    (1 + [a]t)^m = sum_j C(m, j) [j*a] t^j.  The coefficients e_0..e_d are
    plain dicts keyed by integer weight codes: with B = 2*d*max|coordinate|
    + 1, the weight (c_0, ..., c_(n-1)) has code sum c_i B^i in balanced
    base-B digits.  Every weight of degree <= d has coordinates bounded by
    d*max|coordinate|, so adding weights is adding codes, with no carry.

    A weight with m > 0 updates e_k += sum_(1<=j<=min(m,k)) C(m, j)
    [j*a] e_(k-j) for k = d down to 1, reading only old lower coefficients.
    A weight with m = -n < 0 divides by (1 + [a]t)^n instead: for k = 1 up
    to d, e_k -= sum_(1<=j<=min(n,k)) C(n, j) [j*a] e_(k-j), reading the
    new lower coefficients.  Codes are decoded to weight tuples only for
    the returned CharSeries.
    """
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    rank = x.rank
    bound = d * max((abs(c) for w in x.terms for c in w), default=0)
    base = 2 * bound + 1
    coeffs = [{0: 1}] + [{} for _ in range(d)]
    for w, m in x.terms.items():
        code = sum(c * base**i for i, c in enumerate(w))
        n, sign = abs(m), 1 if m > 0 else -1
        binoms = [sign * binomial(n, j) for j in range(min(n, d) + 1)]
        for k in range(d, 0, -1) if m > 0 else range(1, d + 1):
            ek = coeffs[k]
            for j in range(1, min(n, k) + 1):
                c, shift = binoms[j], j * code
                for key, v in coeffs[k - j].items():
                    key += shift
                    ek[key] = ek.get(key, 0) + c * v

    def weight(code):
        coords = []
        for _ in range(rank):
            digit = (code + bound) % base - bound
            coords.append(digit)
            code = (code - digit) // base
        return tuple(coords)

    return CharSeries(
        rank,
        [
            VirtualCharacter(rank, {weight(key): v for key, v in ek.items()})
            for ek in coeffs
        ],
    )


def adams_via_series(k, x):
    """Adams operation extracted from the generating function
    sum_k psi^k(x) (-t)^(k-1) = lambda_t(x)^(-1) * d/dt lambda_t(x)."""
    if k < 1:
        raise ValueError("adams operations need k >= 1")
    lam = lambda_series(x, k)
    rhs = lam.inverse().truncate(k - 1) * lam.derivative()
    coeff = rhs.coefficient(k - 1)
    return coeff if k % 2 == 1 else -coeff


def gamma_series(x, d):
    """gamma_t(x) = lambda_{t/(1-t)}(x) truncated at degree d.

    The substitution expands (1-t)^(-1) as the truncated geometric series:
    with u = t * (1 + t + t^2 + ...), gamma_t(x) = sum_p lambda^p(x) u^p.
    """
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    rank = x.rank
    lam = lambda_series(x, d)
    u = [0] + [1] * d  # t/(1-t) truncated
    upow = [1] + [0] * d  # u^0
    out = [lam.coefficient(0)] + [VirtualCharacter.zero(rank) for _ in range(d)]
    for p in range(1, d + 1):
        nxt = [0] * (d + 1)
        for i, a in enumerate(upow):
            if a:
                for j in range(1, d + 1 - i):
                    nxt[i + j] += a * u[j]
        upow = nxt
        lam_p = lam.coefficient(p)
        if lam_p:
            for q in range(p, d + 1):
                if upow[q]:
                    out[q] = out[q] + lam_p * upow[q]
    return CharSeries(rank, out)
