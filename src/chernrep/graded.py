"""Graded side of the character ring: polynomials, symbol map, Chern data.

A virtual character embeds into polynomials on the Lie algebra of the torus
by sending a weight a to the truncated exponential of the linear form
La = a_1 x_1 + ... + a_n x_n.  The embedding is injective and filtration
preserving, so the lowest nonvanishing homogeneous degree of the image
computes the gamma-filtration degree, and homogeneous components of images
of gamma operations are Chern classes.

`total_chern` computes these classes by the splitting principle, as the
truncated product of (1 + La)^(m_a) over the weights a of multiplicity m_a,
in integer arithmetic.  The symbol map is built one homogeneous degree at a
time, so `filtration_degree` and `leading_class` stop at the first nonzero
component.

Products run on the integer monomial codes of `char_ring` (`_form`,
`_product`, `_binomial_power`).
"""

from fractions import Fraction
from itertools import islice
from math import factorial, lcm

from .char_ring import _binomial_power, _code, _decode, _form, _product
from .char_ring import _signed_sum, augmentation
from .errors import (
    AugmentationError,
    FiltrationCapError,
    RankMismatchError,
    model_dimension,
)

BEYOND_CAP = "beyond-cap"


def _coerce(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _terms_text(terms, order, var):
    """Signed sum of exponent -> Fraction terms, listed in the given order,
    with variables named var1, var2, ...; "0" when there are none."""
    parts = []
    for e in order:
        c = terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"{var}{i + 1}")
            elif k > 1:
                factors.append(f"{var}{i + 1}^{k}")
        mag = abs(c)
        if factors:
            body = "*".join(factors)
            parts.append((c, body if mag == 1 else f"{mag}*{body}"))
        else:
            parts.append((c, str(mag)))
    return _signed_sum(parts)


def _terms_json(terms, order):
    """JSON form of exponent -> Fraction terms, listed in the given order."""
    return [
        {
            "exponents": list(e),
            "numerator": terms[e].numerator,
            "denominator": terms[e].denominator,
        }
        for e in order
    ]


class SymbolicPolynomial:
    """Sparse polynomial in x_1..x_n with exact rational coefficients.

    Stored as a map from exponent vectors to nonzero Fractions.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        collected = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != rank:
                raise RankMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {rank}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = _coerce(c)
            if c:
                prev = collected.get(exps)
                collected[exps] = c if prev is None else prev + c
        object.__setattr__(
            self, "terms", {e: c for e, c in collected.items() if c}
        )
        object.__setattr__(self, "rank", rank)

    @classmethod
    def _trusted(cls, rank, terms):
        """These terms as they are: int-tuple exponents of length rank,
        nonzero Fraction values."""
        f = object.__new__(cls)
        object.__setattr__(f, "rank", rank)
        object.__setattr__(f, "terms", terms)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicPolynomial is immutable")

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def constant(cls, rank, c):
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def one(cls, rank):
        return cls.constant(rank, 1)

    @classmethod
    def variable(cls, rank, i):
        """x_i with 1-based index i."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} outside 1..{rank}")
        exps = [0] * rank
        exps[i - 1] = 1
        return cls(rank, {tuple(exps): 1})

    @classmethod
    def linear_form(cls, coords):
        """The form La = sum a_i x_i of a weight a."""
        return _polynomial(_form(coords, 2), len(coords), 2)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} != rank {other.rank}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymbolicPolynomial.constant(self.rank, other)
        self._check_rank(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return SymbolicPolynomial(self.rank, terms)

    __radd__ = __add__

    def __neg__(self):
        return SymbolicPolynomial(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, SymbolicPolynomial) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymbolicPolynomial(
                self.rank, {e: c * other for e, c in self.terms.items()}
            )
        self._check_rank(other)
        # in a base above the degree of the product, no code is cut
        base = max(self.total_degree(), 0) + max(other.total_degree(), 0) + 1
        product = _product(
            _coded(self.terms, base), _coded(other.terms, base), base ** (self.rank + 1)
        )
        return _polynomial(product, self.rank, base)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        base = k * max(self.total_degree(), 0) + 1
        cut = base ** (self.rank + 1)
        # integer numerators over the lcm of the denominators, by squaring
        scale = lcm(*(c.denominator for c in self.terms.values()))
        power = {e: int(c * scale) for e, c in _coded(self.terms, base).items()}
        out = {0: 1}
        for bit in bin(k)[2:]:
            out = _product(out, out, cut)
            if bit == "1":
                out = _product(out, power, cut)
        return _polynomial(out, self.rank, base, lambda _: scale**k)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicPolynomial)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.terms.items()))))

    def total_degree(self):
        """Maximal total degree, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_component(self, p):
        return SymbolicPolynomial._trusted(
            self.rank, {e: c for e, c in self.terms.items() if sum(e) == p}
        )

    def truncate(self, d):
        return SymbolicPolynomial(
            self.rank, {e: c for e, c in self.terms.items() if sum(e) <= d}
        )

    def _ordered_exps(self):
        # ascending degree, then descending lex (x1 before x2 within a degree)
        return sorted(self.terms, key=lambda e: (sum(e), tuple(-k for k in e)))

    def to_text(self, var="x"):
        return _terms_text(self.terms, self._ordered_exps(), var)

    def to_json_obj(self):
        return _terms_json(self.terms, self._ordered_exps())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"SymbolicPolynomial({self.rank}, {self.terms!r})"


def _coded(terms, base):
    """Exponents -> coefficient terms keyed by their monomial codes."""
    return {_code((sum(e), *e), base): c for e, c in terms.items()}


def _polynomial(terms, rank, base, divisor=None):
    """The SymbolicPolynomial of coded terms; with a divisor, each
    coefficient of degree k is divided by divisor(k).  Each code below
    base^(rank + 1) decodes to its own exponent vector, so the decoded
    terms are built as they are, without the constructor's checks."""
    out = {}
    for code, c in terms.items():
        if c:
            e = _decode(code, rank + 1, base)
            out[e[1:]] = Fraction(c, divisor(e[0])) if divisor else Fraction(c)
    return SymbolicPolynomial._trusted(rank, out)


def _chern_product(x, d):
    """The product over the nonzero weights a of (1 + La)^(m_a) through
    degree d, on codes in base d + 1, with no size guard."""
    cut = (d + 1) ** (x.rank + 1)
    total = {0: 1}
    for w in sorted(x.terms):
        if any(w):
            power = _binomial_power(_form(w, d + 1), x.terms[w], d, cut)
            total = _product(total, power, cut)
    return _polynomial(total, x.rank, d + 1)


def _symbol_numerators(x, base):
    """Yield, for k = 0, 1, 2, ..., the coded integer polynomial
    sum_a m_a La^k, empty from k = base on; divided by k! it is the
    degree-k component of the symbol of x."""
    cut = base ** (x.rank + 1)
    forms = [(x.terms[w], _form(w, base)) for w in sorted(x.terms)]
    powers = [{0: 1}] * len(forms)
    while True:
        acc = {}
        for (m, _), power in zip(forms, powers):
            for e, c in power.items():
                acc[e] = acc.get(e, 0) + m * c
        yield {e: c for e, c in acc.items() if c}
        powers = [_product(power, form, cut) for (_, form), power in zip(forms, powers)]


def _lowest_component(x, cap):
    """(p, component) for the least p <= cap with a nonzero degree-p symbol
    component of x, or None when every component through cap vanishes."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for p, numerators in zip(range(cap + 1), _symbol_numerators(x, cap + 1)):
        if numerators:
            return p, _polynomial(numerators, x.rank, cap + 1, factorial)
    return None


def symbol_map(x, d):
    """Embed a virtual character as a polynomial, truncated at degree d:
    each weight a contributes its multiplicity times sum_{k<=d} (La)^k / k!,
    so the degree-k component is sum_a m_a La^k / k!."""
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    model_dimension(x.rank, d)
    terms = {}
    for numerators in islice(_symbol_numerators(x, d + 1), d + 1):
        terms.update(numerators)
    return _polynomial(terms, x.rank, d + 1, factorial)


def default_cap(x):
    """Cap always large enough to detect nonzero filtration degree: two plus
    the summed coordinate spread of the distinct nonzero weights."""
    span = sum(sum(abs(c) for c in w) for w in x.terms if any(w))
    return 2 + span


def filtration_degree(x, cap):
    """Least p <= cap with nonzero degree-p symbol component of x - eps(x)[0];
    0 when eps(x) != 0, BEYOND_CAP when all components through cap vanish.
    Components are built one degree at a time, stopping at the first nonzero
    one."""
    lowest = _lowest_component(x, cap)
    return BEYOND_CAP if lowest is None else lowest[0]


def leading_class(x, cap=None):
    """The class of x in gr: its lowest nonvanishing symbol component, a
    homogeneous polynomial whose degree (`total_degree()`) is the filtration
    degree of x.

    Requires eps(x) = 0; raises FiltrationCapError past the cap (for x = 0
    there is no leading class at any cap).
    """
    if augmentation(x) != 0:
        raise AugmentationError("leading_class needs an augmentation-zero input")
    if cap is None:
        cap = default_cap(x)
    lowest = _lowest_component(x, cap)
    if lowest is None:
        raise FiltrationCapError(f"no nonzero component up to degree {cap}")
    return lowest[1]


def total_chern(x, d):
    """Total Chern class through degree d, by the splitting principle: the
    product over the nonzero weights a of (1 + La)^(m_a), truncated at
    degree d.  Each factor is the generalized binomial series
    sum_k C(m_a, k) La^k, which stops at k = m_a when m_a >= 0 and is the
    truncated inverse power when m_a < 0.  Its degree is at most d, and at
    most the sum of the m_a when none is negative; the monomials up to that
    degree are counted against the model-size limit before any work."""
    if d < 0:
        raise ValueError("truncation degree must be >= 0")
    mults = [m for w, m in x.terms.items() if any(w)]
    model_dimension(x.rank, d if any(m < 0 for m in mults) else min(d, sum(mults)))
    return _chern_product(x, d)
