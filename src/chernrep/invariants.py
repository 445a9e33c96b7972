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
same for every family; evaluate substitutes them back and is the round-trip
oracle.
"""

from fractions import Fraction

from .errors import (
    InvarianceError,
    NoCanonicalGeneratorsError,
    RankMismatchError,
    ReductionDefectError,
)
from .graded import SymbolicPolynomial, _multiply, _terms_json, _terms_text
from .weyl import (
    GL,
    SO_EVEN,
    SO_ODD,
    TORUS,
    invariant_degrees,
    weyl_elements,
    weyl_generators,
)


def is_invariant(f, g):
    """True iff f is fixed by every Weyl generator of g."""
    if f.rank != g.torus_rank:
        raise RankMismatchError(f"polynomial rank {f.rank} != torus rank {g.torus_rank}")
    return all(f.apply_signed_permutation(w) == f for w in weyl_generators(g))


def symmetrize(f, g):
    """Average of f over the Weyl group; projects onto the invariants."""
    if f.rank != g.torus_rank:
        raise RankMismatchError(f"polynomial rank {f.rank} != torus rank {g.torus_rank}")
    elements = weyl_elements(g)
    acc = SymbolicPolynomial.zero(f.rank)
    for w in elements:
        acc = acc + f.apply_signed_permutation(w)
    return acc * Fraction(1, len(elements))


def elementary_symmetric_all(forms, top):
    """e_0..e_top of a list of polynomials, by the one-pass recurrence."""
    if not forms:
        raise ValueError("need at least one form")
    rank = forms[0].rank
    es = [SymbolicPolynomial.one(rank)] + [
        SymbolicPolynomial.zero(rank) for _ in range(top)
    ]
    for form in forms:
        for j in range(min(top, len(es) - 1), 0, -1):
            es[j] = es[j] + es[j - 1] * form
    return es


def _standard_weight_forms(g):
    n = g.rank
    forms = []
    for i in range(1, n + 1):
        v = SymbolicPolynomial.variable(n, i)
        forms.append(v)
        forms.append(-v)
    if g.family == SO_ODD:
        forms.append(SymbolicPolynomial.zero(n))
    return forms


def generator_definitions(g):
    """The classical generator system as (name, polynomial, degree) triples."""
    if g.family == TORUS:
        raise NoCanonicalGeneratorsError(
            "a torus has no canonical invariant generators"
        )
    n = g.rank
    degrees = invariant_degrees(g)
    xs = [SymbolicPolynomial.variable(n, i) for i in range(1, n + 1)]
    forms = xs if g.family == GL else _standard_weight_forms(g)
    es = elementary_symmetric_all(forms, max(degrees))
    polys = [es[deg] for deg in degrees]
    if g.family == SO_EVEN:
        pf = SymbolicPolynomial.one(n)
        for x in xs:
            pf = pf * x
        polys[-1] = pf
    return list(zip((f"I{p}" for p in range(1, n + 1)), polys, degrees))


class GeneratorExpression:
    """Polynomial with rational coefficients in the generators I_1..I_l."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        if group.family == TORUS:
            raise NoCanonicalGeneratorsError(
                "a torus has no canonical invariant generators"
            )
        count = group.rank
        collected = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != count:
                raise RankMismatchError(
                    f"generator exponent vector {exps} has length {len(exps)}, "
                    f"expected {count}"
                )
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = Fraction(c)
            if c:
                collected[exps] = collected.get(exps, Fraction(0)) + c
        object.__setattr__(self, "group", group)
        object.__setattr__(
            self, "terms", {e: c for e, c in collected.items() if c}
        )

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

    def __add__(self, other):
        if self.group != other.group:
            raise RankMismatchError("generator expressions for different groups")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return GeneratorExpression(self.group, terms)

    def _degree_of(self):
        """Weighted degree of a generator monomial."""
        degrees = invariant_degrees(self.group)
        return lambda e: sum(k * d for k, d in zip(e, degrees))

    def _ordered_exps(self):
        degree = self._degree_of()
        return sorted(self.terms, key=lambda e: (degree(e), tuple(-k for k in e)))

    def leading_term(self):
        """Term of highest polynomial degree, as (exponents, coefficient)."""
        if not self.terms:
            return None
        degree = self._degree_of()
        e = max(self.terms, key=lambda e: (degree(e), e))
        return e, self.terms[e]

    def to_text(self):
        return _terms_text(self.terms, self._ordered_exps(), "I")

    def to_json_obj(self):
        return _terms_json(self.terms, self._ordered_exps())

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"GeneratorExpression({self.group!r}, {self.terms!r})"


def _generator_products(g):
    """The generators' integer terms, and the terms of I^k = prod_p I_p^(k_p)
    as a function of k, each product built once as a smaller product times
    one generator.  The memo lives as long as the returned function."""
    gens = [
        {e: int(c) for e, c in poly.terms.items()}
        for _, poly, _ in generator_definitions(g)
    ]
    memo = {(0,) * len(gens): {(0,) * g.torus_rank: 1}}

    def product(k):
        chain = []
        while k not in memo:
            p = next(p for p, kp in enumerate(k) if kp)
            chain.append((k, p))
            k = k[:p] + (k[p] - 1,) + k[p + 1 :]
        for key, p in reversed(chain):
            memo[key] = _multiply(memo[k], gens[p])
            k = key
        return memo[k]

    return gens, product


def evaluate(expr):
    """Substitute the generator polynomials into an expression and expand."""
    _, product = _generator_products(expr.group)
    terms = {}
    for k, c in expr.terms.items():
        for e, v in product(k).items():
            terms[e] = terms.get(e, 0) + c * v
    return SymbolicPolynomial(expr.group.torus_rank, terms)


def rewrite(f, g):
    """Express a Weyl-invariant polynomial in the classical generators.

    Leading-term elimination in graded lex order against the generators
    themselves.  The leading exponent of I_p is s_p (1..1, 0..0) with p
    ones, s_p = 1 for GL and the Pfaffian and 2 otherwise, and the leading
    term of a product is the product of the leading terms.  So the leading
    exponent lambda of the remainder is that of I^k with
    k_p = (lambda_p - lambda_(p+1)) / s_p, and subtracting c I^k removes it.
    A torus has no generators and is refused.
    """
    gens, product = _generator_products(g)
    if not is_invariant(f, g):
        raise InvarianceError("rewrite needs a Weyl-invariant polynomial")
    steps = [max(gen, key=lambda e: (sum(e), e))[0] for gen in gens]
    rest = dict(f.terms)
    out = {}
    while rest:
        lead = max(rest, key=lambda e: (sum(e), e))
        gaps = [a - b for a, b in zip(lead, lead[1:] + (0,))]
        if any(gap < 0 or gap % s for gap, s in zip(gaps, steps)):
            raise ReductionDefectError(
                f"leading exponent {lead} is not that of a generator monomial; "
                "input was not invariant"
            )
        k = tuple(gap // s for gap, s in zip(gaps, steps))
        term = product(k)
        c = out[k] = rest[lead] / term[lead]
        for e, v in term.items():
            rest[e] = rest.get(e, 0) - c * v
            if not rest[e]:
                del rest[e]
    return GeneratorExpression(g, out)
