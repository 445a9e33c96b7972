"""Weyl-invariant polynomials and their expression in classical generators.

For each classical family the invariant ring of the Weyl group is a free
polynomial ring on generators read off the standard representation:

  GL(n)     I_p = e_p(x_1..x_n)                      degree p,   1 <= p <= n
  Sp(2l),
  SO(2l+1)  I_p = e_{2p}(weights of std)             degree 2p,  1 <= p <= l
            (equal to (-1)^p e_p(x_1^2..x_l^2))
  SO(2l)    I_p as above for p <= l-1, and the Pfaffian I_l = x_1...x_l

rewrite expresses an invariant polynomial in these generators by one
leading-term elimination against the generator polynomials themselves, the
same for every family, in integers on monomial codes; evaluate substitutes
them back and is the round-trip oracle.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod

from .errors import (
    InvarianceError,
    NoCanonicalGeneratorsError,
    RankMismatchError,
    ReductionDefectError,
    within_limit,
)
from .char_ring import _code, _decode, _product
from .graded import SymbolicPolynomial, _chern_product, _coded, _polynomial
from .graded import _terms_json, _terms_text
from .reps import standard
from .weyl import SO_EVEN, TORUS, _carries_invariant, _fixed_by_generators, _images, invariant_degrees


def _monomial(v):
    """(|v|, sign) for a signed exponent vector v: x^e goes under a Weyl
    element w to sign * x^|v| with v the image of e under w, as x_j goes to
    +-x_i, and sign = (-1)^(sum of the negative entries of v)."""
    return tuple(map(abs, v)), -1 if sum(k for k in v if k < 0) % 2 else 1


def is_invariant(f, g):
    """True iff f is fixed by every Weyl generator of g, checked by one
    coefficient lookup per generator and term.  `rewrite` needs it only
    when its elimination stops, to tell a non-invariant input from a
    defect: an elimination that ends has proved f invariant."""
    _check_rank(f, g)
    return _fixed_by_generators(f.terms, g, _monomial)


def _check_rank(f, g):
    if f.rank != g.rank:
        raise RankMismatchError(f"polynomial rank {f.rank} != torus rank {g.rank}")


def _arrangements(e):
    """The distinct rearrangements of the tuple e in ascending order, each
    the next permutation of the one before (Narayana Pandita)."""
    a = sorted(e)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def symmetrize(f, g):
    """Average of f over the Weyl group; projects onto the invariants.

    The average of c x^e is 0 where a sign change of W negates x^e
    (`_carries_invariant`), and otherwise c / |S_n e| times the sum of x^u
    over the distinct rearrangements u of e.  A torus's W is trivial and f
    is returned.  An output of more than MODEL_DIM_LIMIT monomials in all,
    sum |S_n e|, is refused with ModelSizeError before any is built."""
    _check_rank(f, g)
    if g.family == TORUS:
        return f
    sizes = {
        e: factorial(len(e)) // prod(map(factorial, Counter(e).values()))
        for e in f.terms
        if _carries_invariant(g, e)
    }
    within_limit(sum(sizes.values()), "symmetrized monomial count")
    terms = {}
    for e, size in sizes.items():
        for u in _arrangements(e):
            terms[u] = terms.get(u, 0) + f.terms[e] / size
    return SymbolicPolynomial(f.rank, terms)


def generator_definitions(g):
    """The classical generator system as (name, polynomial, degree) triples:
    the parts of the total Chern class of the standard representation, whose
    model bound would count far more monomials than e_p has, so it is taken
    unguarded, and the Pfaffian for even SO."""
    if g.family == TORUS:
        raise NoCanonicalGeneratorsError(
            "a torus has no canonical invariant generators"
        )
    n = g.rank
    degrees = invariant_degrees(g)
    top = max(degrees)
    chern = _chern_product(standard(g), top)
    polys = [chern.homogeneous_component(deg) for deg in degrees]
    if g.family == SO_EVEN:
        polys[-1] = SymbolicPolynomial(n, {(1,) * n: 1})
    return list(zip((f"I{p}" for p in range(1, n + 1)), polys, degrees))


class GeneratorExpression:
    """Polynomial with rational coefficients in the generators I_1..I_l,
    its terms checked as those of a polynomial in rank-many variables."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        if group.family == TORUS:
            raise NoCanonicalGeneratorsError(
                "a torus has no canonical invariant generators"
            )
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", SymbolicPolynomial(group.rank, terms).terms)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorExpression is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorExpression)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def _degree_of(self):
        """Weighted degree of a generator monomial."""
        degrees = invariant_degrees(self.group)
        return lambda e: sum(k * d for k, d in zip(e, degrees))

    def _ordered_exps(self):
        degree = self._degree_of()
        return sorted(self.terms, key=lambda e: (degree(e), tuple(-k for k in e)))

    def to_text(self):
        return _terms_text(self.terms, self._ordered_exps(), "I")

    def to_json_obj(self):
        return _terms_json(self.terms, self._ordered_exps())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"GeneratorExpression({self.group!r}, {self.terms!r})"


def _generator_products(g, base):
    """The generators' integer terms on monomial codes in `base`, above
    2 * rank and every degree asked for, each checked to lead with +-1, and
    the terms of I^k = prod_p I_p^(k_p) as a function of k, each product
    built once as a smaller product times one generator.  The memo lives as
    long as the returned function."""
    gens = []
    for name, poly, _ in generator_definitions(g):
        gen = {code: int(c) for code, c in _coded(poly.terms, base).items()}
        if gen[max(gen)] not in (1, -1):
            raise ReductionDefectError(
                f"generator {name} has a leading coefficient other than +-1"
            )
        gens.append(gen)
    cut = base ** (g.rank + 1)
    memo = {(0,) * len(gens): {0: 1}}

    def product(k):
        chain = []
        while k not in memo:
            p = next(p for p, kp in enumerate(k) if kp)
            chain.append((k, p))
            k = k[:p] + (k[p] - 1,) + k[p + 1 :]
        for key, p in reversed(chain):
            memo[key] = _product(memo[k], gens[p], cut)
            k = key
        return memo[k]

    return gens, product


def evaluate(expr):
    """Substitute the generator polynomials into an expression and expand."""
    g = expr.group
    top = max(map(expr._degree_of(), expr.terms), default=0)
    base = max(top, 2 * g.rank) + 1
    _, product = _generator_products(g, base)
    terms = {}
    for k, c in expr.terms.items():
        for e, v in product(k).items():
            terms[e] = terms.get(e, 0) + c * v
    return _polynomial(terms, g.rank, base)


def rewrite(f, g):
    """Express a Weyl-invariant polynomial in the classical generators.

    Leading-term elimination in graded lex order against the generators
    themselves.  The leading exponent of I_p is s_p (1..1, 0..0) with p
    ones, s_p = 1 for GL and the Pfaffian and 2 otherwise, and the leading
    term of a product is the product of the leading terms.  So the leading
    exponent lambda of the remainder is that of I^k with
    k_p = (lambda_p - lambda_(p+1)) / s_p, and subtracting c I^k removes it.
    f is scaled once to integer coefficients, and as the leading
    coefficient of I^k is +-1, the remainder stays in integers; graded lex
    order is the order of monomial codes.  A torus has no generators and is
    refused.

    A remainder that empties has written f in the invariant generators, so
    success proves f invariant and no separate check runs.  The remainder
    of an invariant f is invariant, so each leading term is checked
    against its images under the Weyl generators, one lookup each, and the
    elimination stops at the first term that differs from one of them, or
    whose exponent no generator monomial has.  Only then does
    `is_invariant` decide between InvarianceError and ReductionDefectError.
    """
    _check_rank(f, g)
    n = g.rank
    base = max(f.total_degree(), 2 * n) + 1
    gens, product = _generator_products(g, base)
    steps = [_decode(max(gen), n + 1, base)[1] for gen in gens]
    scale = lcm(*(c.denominator for c in f.terms.values()))
    rest = {
        code: c.numerator * (scale // c.denominator)
        for code, c in _coded(f.terms, base).items()
    }
    out = {}
    while rest:
        lead = max(rest)
        exps = _decode(lead, n + 1, base)[1:]
        gaps = [a - b for a, b in zip(exps, exps[1:] + (0,))]
        images = map(_monomial, _images(g, exps))
        if any(gap < 0 or gap % s for gap, s in zip(gaps, steps)) or any(
            rest.get(_code((sum(e), *e), base)) != sign * rest[lead] for e, sign in images
        ):
            if not is_invariant(f, g):
                raise InvarianceError("rewrite needs a Weyl-invariant polynomial")
            raise ReductionDefectError(
                f"the elimination stops at leading exponent {exps}, "
                "although the input is invariant"
            )
        k = tuple(gap // s for gap, s in zip(gaps, steps))
        term = product(k)
        c = out[k] = rest[lead] * term[lead]
        for e, v in term.items():
            rest[e] = rest.get(e, 0) - c * v
            if not rest[e]:
                del rest[e]
    return GeneratorExpression(g, {k: Fraction(c, scale) for k, c in out.items()})
